#include "sim/core_scheduler.h"

#include <initializer_list>

#include "core/logging.h"
#include "sim/dram_model.h"

namespace dbsens {

namespace {

/**
 * Map an allocation-order index to (socket, physical, smt) per the
 * paper: fill socket 0 physical cores, then socket 1 physical cores,
 * then the second SMT threads of all physical cores.
 */
int
socketOfIndex(int core)
{
    const int per_socket = calib::kPhysCoresPerSocket; // 8
    return (core % (2 * per_socket)) / per_socket;
}

static_assert(calib::kLogicalCores == 32 && calib::kSockets == 2 &&
                  calib::kPhysCoresPerSocket == 8,
              "core masks assume 2 sockets x 8 cores x 2 SMT threads");

/** Logical cores of each socket in allocation order. */
constexpr uint32_t kSocketCores[2] = {0x00FF00FFu, 0xFF00FF00u};

/** The first `n` logical cores, n in [1, 32]. */
uint32_t
prefixMask(int n)
{
    return n >= 32 ? ~uint32_t(0) : (uint32_t(1) << n) - 1;
}

/** Bit c set when core c's SMT sibling (c +- 16) is set in `m`. */
uint32_t
siblingsOf(uint32_t m)
{
    return m << 16 | m >> 16;
}

/** Lowest set bit of the first nonzero mask, else -1. */
int
lowestOfFirst(std::initializer_list<uint32_t> masks)
{
    for (uint32_t m : masks)
        if (m)
            return __builtin_ctz(m);
    return -1;
}

} // namespace

/** Awaitable that grants a free logical core, queueing FIFO if none. */
class CoreAcquire
{
  public:
    CoreAcquire(CoreScheduler &s, int tenant) : sched(s)
    {
        waiter.tenant = tenant;
    }

    bool
    await_ready()
    {
        const int core = sched.pickFreeCoreFor(waiter.tenant);
        if (core >= 0) {
            sched.takeCore(core);
            waiter.grantedCore = core;
            return true;
        }
        return false;
    }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        waiter.handle = h;
        sched.waiters_.push_back(&waiter);
    }

    int await_resume() const { return waiter.grantedCore; }

  private:
    CoreScheduler &sched;
    CoreScheduler::Waiter waiter;
};

CoreScheduler::CoreScheduler(EventLoop &loop, DramModel *dram)
    : loop_(loop), dram_(dram), cores_(calib::kLogicalCores)
{
}

void
CoreScheduler::setAllowedCores(int n)
{
    if (n < 1 || n > calib::kLogicalCores)
        fatal("core allocation must be in [1, 32], got " +
              std::to_string(n));
    allowed_ = n;
}

int
CoreScheduler::socketOf(int core)
{
    return socketOfIndex(core);
}

int
CoreScheduler::physicalOf(int core)
{
    // Physical core id 0..15; logical 16..31 are the SMT siblings of
    // logical 0..15 in allocation order.
    return core % (calib::kSockets * calib::kPhysCoresPerSocket);
}

int
CoreScheduler::siblingOf(int core)
{
    const int phys_total = calib::kSockets * calib::kPhysCoresPerSocket;
    return core < phys_total ? core + phys_total : core - phys_total;
}

int
CoreScheduler::pickFreeCore(uint32_t busy, int allowed)
{
    const uint32_t free = ~busy & prefixMask(allowed);
    return lowestOfFirst({free & ~siblingsOf(busy), free});
}

void
CoreScheduler::setTenantMask(int tenant, uint64_t mask)
{
    if (tenant < 0 || tenant >= kMaxTenants)
        fatal("tenant id must be in [0, " +
              std::to_string(kMaxTenants) + "), got " +
              std::to_string(tenant));
    tenantMask_[tenant] = mask;
    haveLeases_ = false;
    for (int t = 0; t < kMaxTenants; ++t)
        haveLeases_ = haveLeases_ || tenantMask_[t] != 0;
    // A repartition can hand free cores to a queued tenant.
    pumpWaiters();
}

void
CoreScheduler::clearTenantMasks()
{
    for (int t = 0; t < kMaxTenants; ++t)
        tenantMask_[t] = 0;
    haveLeases_ = false;
    pumpWaiters();
}

uint64_t
CoreScheduler::tenantMask(int tenant) const
{
    return tenant >= 0 && tenant < kMaxTenants ? tenantMask_[tenant]
                                               : 0;
}

double
CoreScheduler::tenantBusyNs(int tenant) const
{
    return tenant >= 0 && tenant < kMaxTenants ? tenantBusyNs_[tenant]
                                               : 0;
}

int
CoreScheduler::pickFreeCoreFor(int tenant) const
{
    const uint64_t lease =
        tenant >= 0 && tenant < kMaxTenants ? tenantMask_[tenant] : 0;
    return pickFreeCoreFor(busyMask_, allowed_, lease);
}

int
CoreScheduler::pickFreeCoreFor(uint32_t busy, int allowed,
                               uint64_t lease)
{
    if (lease == 0)
        return pickFreeCore(busy, allowed);
    const uint32_t leased = uint32_t(lease); // cores >= 32 do not exist

    // Hardware-islands placement ("OLTP on Hardware Islands"): keep
    // the tenant on the socket it already occupies, filling that
    // socket's physical cores, then its SMT threads, before crossing
    // sockets. Preferred socket = most busy leased cores there, then
    // most leased cores, then socket 0.
    int busy_on[2] = {0, 0};
    int leased_on[2] = {0, 0};
    for (int s = 0; s < 2; ++s) {
        busy_on[s] = __builtin_popcount(leased & busy & kSocketCores[s]);
        leased_on[s] = __builtin_popcount(leased & kSocketCores[s]);
    }
    int pref = 0;
    if (busy_on[0] != busy_on[1])
        pref = busy_on[0] > busy_on[1] ? 0 : 1;
    else if (leased_on[0] != leased_on[1])
        pref = leased_on[0] > leased_on[1] ? 0 : 1;

    // Rank order: preferred socket with an idle sibling (physical
    // core), preferred socket's SMT threads, then the other socket in
    // the same order; the lowest core wins within a rank.
    const uint32_t free = leased & ~busy & prefixMask(allowed);
    const uint32_t home = kSocketCores[pref];
    const uint32_t sib_busy = siblingsOf(busy);
    return lowestOfFirst({free & home & ~sib_busy, free & home & sib_busy,
                          free & ~home & ~sib_busy,
                          free & ~home & sib_busy});
}

double
CoreScheduler::burstDurationNs(int core, const CpuWork &work,
                               double *dram_infl_ns) const
{
    double dur = work.totalNs();
    const int sib = siblingOf(core);
    if (coreBusy(sib)) {
        const double avg_stall =
            0.5 * (work.stallFraction() + cores_[sib].stallFraction);
        const double combined = calib::smtCombinedThroughput(avg_stall);
        // Per-thread throughput share is combined/2 of a solo thread.
        dur *= 2.0 / combined;
    }
    if (dram_infl_ns)
        *dram_infl_ns = 0;
    // A burst can never move its DRAM bytes faster than the socket's
    // achievable bandwidth.
    if (work.dramBytes > 0) {
        const double min_ns =
            work.dramBytes / calib::kDramBwPerSocket * 1e9;
        if (min_ns > dur) {
            if (dram_infl_ns)
                *dram_infl_ns = min_ns - dur;
            dur = min_ns;
        }
    }
    return dur;
}

Task<void>
CoreScheduler::consume(CpuWork work)
{
    const SimTime enqueue = loop_.now();
    const int core = co_await CoreAcquire(*this, work.tenant);
    const SimTime grant = loop_.now();
    lastGrantedCore_ = core;
    cores_[core].stallFraction = work.stallFraction();
    double dram_infl = 0;
    const double dur = burstDurationNs(core, work, &dram_infl);
    busyNs_ += dur;
    cores_[core].busyNs += dur;
    socketBusyNs_[socketOf(core)] += dur;
    if (work.tenant >= 0 && work.tenant < kMaxTenants)
        tenantBusyNs_[work.tenant] += dur;
    workNs_ += work.totalNs();
    if (dram_ && work.dramBytes > 0)
        dram_->charge(socketOf(core), work.dramBytes);
    co_await SimDelay(loop_, SimDuration(dur));
    if (blame_)
        blame_(work.tenant, enqueue, grant, loop_.now(),
               work.computeNs, work.stallNs + dram_infl);
    releaseCore(core);
}

void
CoreScheduler::releaseCore(int core)
{
    busyMask_ &= ~(uint32_t(1) << core);
    pumpWaiters();
}

void
CoreScheduler::pumpWaiters()
{
    // FIFO grant loop. Without leases at most the front waiter can be
    // granted (a session only queues when no allowed core is free, so
    // a single release frees a single core) — identical to the
    // historical one-grant-per-release path. With leases a waiter
    // whose lease is fully busy must not block later waiters whose
    // lease has room, so the scan continues past it.
    for (auto it = waiters_.begin(); it != waiters_.end();) {
        Waiter *w = *it;
        const int core = pickFreeCoreFor(w->tenant);
        if (core < 0) {
            if (!haveLeases_)
                return; // shared pool exhausted: nobody later fits
            ++it;
            continue;
        }
        takeCore(core);
        w->grantedCore = core;
        it = waiters_.erase(it);
        loop_.post(w->handle);
    }
}

} // namespace dbsens
