/**
 * @file
 * Deterministic pseudo-random number generation for data generators and
 * workload drivers. We implement SplitMix64 (seeding) and xoshiro256**
 * (bulk generation) from scratch so that every platform produces the
 * same streams, plus a Zipf sampler used to model skewed row access.
 */

#ifndef DBSENS_CORE_RANDOM_H
#define DBSENS_CORE_RANDOM_H

#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace dbsens {

/** SplitMix64: used to expand a single seed into generator state. */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : state(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    uint64_t state;
};

/**
 * xoshiro256** generator. Fast, high-quality, deterministic across
 * platforms. Satisfies enough of UniformRandomBitGenerator for our use.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    explicit Rng(uint64_t seed = 0x5eedDB5E25ULL)
    {
        SplitMix64 sm(seed);
        for (auto &w : s)
            w = sm.next();
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~uint64_t{0}; }

    uint64_t
    operator()()
    {
        const uint64_t result = rotl(s[1] * 5, 7) * 9;
        const uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t
    uniform(uint64_t n)
    {
        assert(n > 0);
        // Lemire's multiply-shift rejection-free variant is fine here;
        // a tiny modulo bias is acceptable for workload generation, but
        // we use 128-bit multiply to avoid it entirely.
        return uint64_t((__uint128_t((*this)()) * n) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        assert(hi >= lo);
        return lo + int64_t(uniform(uint64_t(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniformReal()
    {
        return double((*this)() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of true. */
    bool chance(double p) { return uniformReal() < p; }

    /** Exponentially distributed value with the given mean. */
    double
    exponential(double mean)
    {
        double u = uniformReal();
        if (u >= 1.0)
            u = 0.9999999999;
        return -mean * std::log1p(-u);
    }

    /** Random fixed-length uppercase string (for text columns). */
    std::string
    text(size_t len)
    {
        std::string out(len, 'A');
        for (auto &c : out)
            c = char('A' + uniform(26));
        return out;
    }

  private:
    static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

    uint64_t s[4];
};

/**
 * Zipf-distributed sampler over [0, n). Uses the classic rejection
 * method of Gries/Jacobsen so that setup is O(1) and sampling is O(1)
 * expected, which matters because workloads draw billions of values.
 *
 * theta in (0, 1) controls skew; theta -> 1 is very skewed. theta = 0
 * degenerates to uniform.
 *
 * Immutable after construction (every draw's state comes from the
 * caller's Rng), so one sampler can serve many sessions and threads.
 * Construction is not cheap (up to 10,000 pow calls in zeta()):
 * build one per (n, theta) per workload, not one per session.
 */
class ZipfSampler
{
  public:
    ZipfSampler(uint64_t n, double theta) : n_(n), theta_(theta)
    {
        assert(n > 0);
        if (theta <= 0.0) {
            uniform_ = true;
            return;
        }
        zetan_ = zeta(n, theta);
        zeta2_ = zeta(2, theta);
        alpha_ = 1.0 / (1.0 - theta);
        halfPowTheta_ = std::pow(0.5, theta);
        eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
               (1.0 - zeta2_ / zetan_);
    }

    uint64_t size() const { return n_; }
    double theta() const { return theta_; }

    /** Draw one value in [0, n); 0 is the hottest item. */
    uint64_t
    operator()(Rng &rng) const
    {
        if (uniform_)
            return rng.uniform(n_);
        const double u = rng.uniformReal();
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + halfPowTheta_)
            return 1;
        auto v = uint64_t(double(n_) *
                          std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return v >= n_ ? n_ - 1 : v;
    }

  private:
    static double
    zeta(uint64_t n, double theta)
    {
        // Exact for small n; for large n use the standard
        // integral-bound approximation so construction stays O(1).
        if (n <= 10000) {
            double sum = 0.0;
            for (uint64_t i = 1; i <= n; ++i)
                sum += std::pow(1.0 / double(i), theta);
            return sum;
        }
        double sum = 0.0;
        for (uint64_t i = 1; i <= 10000; ++i)
            sum += std::pow(1.0 / double(i), theta);
        // Integral of x^-theta from 10000 to n.
        sum += (std::pow(double(n), 1.0 - theta) -
                std::pow(10000.0, 1.0 - theta)) / (1.0 - theta);
        return sum;
    }

    uint64_t n_;
    double theta_;
    bool uniform_ = false;
    double zetan_ = 0, zeta2_ = 0, alpha_ = 0, eta_ = 0;
    double halfPowTheta_ = 0; ///< 0.5^theta: the rank-1 threshold
};

} // namespace dbsens

#endif // DBSENS_CORE_RANDOM_H
