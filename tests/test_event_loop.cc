/**
 * @file
 * Unit tests for the discrete-event kernel and coroutine tasks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "sim/core_scheduler.h"
#include "sim/dram_model.h"
#include "sim/event_loop.h"
#include "sim/ssd_model.h"
#include "sim/task.h"

namespace dbsens {
namespace {

TEST(EventLoop, CallbacksRunInTimeOrder)
{
    EventLoop loop;
    std::vector<int> order;
    loop.at(30, [&] { order.push_back(3); });
    loop.at(10, [&] { order.push_back(1); });
    loop.at(20, [&] { order.push_back(2); });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, SameTimeEventsAreFifo)
{
    EventLoop loop;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        loop.at(5, [&, i] { order.push_back(i); });
    loop.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventLoop, RunUntilAdvancesClockAndLeavesLaterEvents)
{
    EventLoop loop;
    int fired = 0;
    loop.at(100, [&] { ++fired; });
    loop.at(200, [&] { ++fired; });
    loop.runUntil(150);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(loop.now(), 150);
    loop.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventLoop, NestedSchedulingFromCallback)
{
    EventLoop loop;
    std::vector<SimTime> times;
    loop.at(10, [&] {
        times.push_back(loop.now());
        loop.after(5, [&] { times.push_back(loop.now()); });
    });
    loop.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], 10);
    EXPECT_EQ(times[1], 15);
}

Task<int>
addLater(EventLoop &loop, int a, int b)
{
    co_await SimDelay(loop, 100);
    co_return a + b;
}

Task<void>
outer(EventLoop &loop, int &result)
{
    const int x = co_await addLater(loop, 2, 3);
    const int y = co_await addLater(loop, x, 10);
    result = y;
}

TEST(Task, NestedAwaitPropagatesValues)
{
    EventLoop loop;
    int result = 0;
    loop.spawn(outer(loop, result));
    loop.run();
    EXPECT_EQ(result, 15);
    EXPECT_EQ(loop.now(), 200);
    EXPECT_EQ(loop.activeTasks(), 0);
}

TEST(Task, ManyConcurrentRootTasksComplete)
{
    EventLoop loop;
    int done = 0;
    auto worker = [](EventLoop &lp, int delay, int &d) -> Task<void> {
        co_await SimDelay(lp, delay);
        co_await SimDelay(lp, delay);
        ++d;
    };
    for (int i = 1; i <= 100; ++i)
        loop.spawn(worker(loop, i, done));
    EXPECT_EQ(loop.activeTasks(), 100);
    loop.run();
    EXPECT_EQ(done, 100);
    EXPECT_EQ(loop.activeTasks(), 0);
    EXPECT_EQ(loop.now(), 200);
}

TEST(Task, ZeroDelayDoesNotSuspend)
{
    EventLoop loop;
    bool ran = false;
    auto t = [](EventLoop &lp, bool &r) -> Task<void> {
        co_await SimDelay(lp, 0);
        r = true;
    };
    loop.spawn(t(loop, ran));
    loop.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(loop.now(), 0);
}

/** Awaitable that suspends and hands its handle to the test. */
struct Park
{
    std::coroutine_handle<> &slot;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { slot = h; }
    void await_resume() const noexcept {}
};

/** A root task that parks once, then records `id` when resumed. */
Task<void>
parkThenRecord(std::coroutine_handle<> &slot, std::vector<int> &order,
               int id)
{
    co_await Park{slot};
    order.push_back(id);
}

TEST(EventLoop, ResumptionsAndCallbacksAtOneTimeRunInPostOrder)
{
    EventLoop loop;
    std::vector<int> order;
    std::vector<std::coroutine_handle<>> parked(20);
    for (int i = 0; i < 20; i += 2)
        loop.spawn(parkThenRecord(parked[size_t(i)], order, i));
    loop.run();
    ASSERT_TRUE(order.empty());

    // Alternate the two kinds, first at the current time, then at a
    // later one.
    for (int i = 0; i < 10; ++i) {
        if (i % 2 == 0)
            loop.post(parked[size_t(i)]);
        else
            loop.at(loop.now(), [&order, i] { order.push_back(i); });
    }
    for (int i = 10; i < 20; ++i) {
        if (i % 2 == 0)
            loop.postAt(50, parked[size_t(i)]);
        else
            loop.at(50, [&order, i] { order.push_back(i); });
    }
    loop.run();
    std::vector<int> expected(20);
    for (int i = 0; i < 20; ++i)
        expected[size_t(i)] = i;
    EXPECT_EQ(order, expected);
    EXPECT_EQ(loop.activeTasks(), 0);
}

TEST(EventLoop, RunUntilLeavesLaterResumptionsAndCallbacksQueued)
{
    EventLoop loop;
    std::vector<int> order;
    std::coroutine_handle<> parked;
    loop.spawn(parkThenRecord(parked, order, 1));
    loop.run();
    loop.postAt(200, parked);
    loop.at(200, [&] { order.push_back(2); });
    loop.at(100, [&] { order.push_back(0); });
    loop.runUntil(150);
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_EQ(loop.now(), 150);
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(loop.now(), 200);
}

TEST(EventLoop, KillDomainDropsBothKindsAndFreesCallbacks)
{
    EventLoop loop;
    std::vector<int> order;
    std::coroutine_handle<> parked;
    loop.spawn(parkThenRecord(parked, order, 1));
    loop.run();

    auto capture = std::make_shared<int>(0);
    const DomainId d = loop.newDomain();
    {
        DomainScope scope(loop, d);
        loop.postAt(10, parked);
        loop.at(10, [&order, capture] { order.push_back(2); });
    }
    loop.at(20, [&] { order.push_back(3); });
    EXPECT_EQ(capture.use_count(), 2);
    loop.killDomain(d);
    EXPECT_FALSE(loop.domainAlive(d));
    {
        // Work scheduled into a dead domain is dropped too.
        DomainScope scope(loop, d);
        loop.at(15, [&order, capture] { order.push_back(4); });
    }
    const uint64_t before = loop.eventsDispatched();
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{3}));
    EXPECT_EQ(loop.eventsDispatched() - before, 1u);
    EXPECT_EQ(capture.use_count(), 1);
    EXPECT_EQ(loop.activeTasks(), 1);
    parked.destroy(); // never resumed: reclaim the frame here
}

TEST(EventLoopDeathTest, SchedulingIntoThePastPanics)
{
    EventLoop loop;
    loop.at(10, [] {});
    loop.run();
    EXPECT_DEATH(loop.at(5, [] {}), "into the past");
    EXPECT_DEATH(loop.postAt(5, std::noop_coroutine()), "into the past");
}

TEST(CoreScheduler, SingleCoreSerializesBursts)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    cpu.setAllowedCores(1);
    std::vector<SimTime> ends;
    auto burst = [&](double ns) -> Task<void> {
        co_await cpu.consume(CpuWork{ns, 0, 0});
        ends.push_back(loop.now());
    };
    loop.spawn(burst(1000));
    loop.spawn(burst(1000));
    loop.spawn(burst(1000));
    loop.run();
    ASSERT_EQ(ends.size(), 3u);
    EXPECT_EQ(ends[0], 1000);
    EXPECT_EQ(ends[1], 2000);
    EXPECT_EQ(ends[2], 3000);
}

TEST(CoreScheduler, TwoCoresRunInParallel)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    cpu.setAllowedCores(2);
    std::vector<SimTime> ends;
    auto burst = [&](double ns) -> Task<void> {
        co_await cpu.consume(CpuWork{ns, 0, 0});
        ends.push_back(loop.now());
    };
    loop.spawn(burst(1000));
    loop.spawn(burst(1000));
    loop.run();
    ASSERT_EQ(ends.size(), 2u);
    // Cores 0 and 1 are different physical cores: fully parallel.
    EXPECT_EQ(ends[0], 1000);
    EXPECT_EQ(ends[1], 1000);
}

TEST(CoreScheduler, SmtSiblingsSlowEachOtherWhenComputeBound)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    // 17 allowed cores: core 16 is the SMT sibling of core 0.
    cpu.setAllowedCores(17);
    std::vector<SimTime> ends(17);
    auto burst = [&](int i) -> Task<void> {
        co_await cpu.consume(CpuWork{1000, 0, 0});
        ends[i] = loop.now();
    };
    for (int i = 0; i < 17; ++i)
        loop.spawn(burst(i));
    loop.run();
    // 16 bursts land on idle physical cores; the 17th shares a core.
    // Compute-bound combined throughput is 0.7 => per-thread share
    // 0.35 => duration 1000/0.35 ns.
    const SimTime shared = SimTime(1000.0 * 2.0 /
                                   calib::smtCombinedThroughput(0.0));
    int slow = 0, fast = 0;
    for (auto t : ends) {
        if (t == 1000)
            ++fast;
        else if (t == shared)
            ++slow;
    }
    EXPECT_EQ(fast, 16);
    EXPECT_EQ(slow, 1);
}

TEST(CoreScheduler, StallHeavySiblingsOverlapWell)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    cpu.setAllowedCores(32);
    // Two bursts forced onto the same physical core by filling all
    // others: simpler — allow only cores 0 and 16 via a tiny trick:
    // run 32 bursts and check total completion is shorter for
    // stall-heavy work than compute-heavy work of equal size.
    SimTime compute_end = 0, stall_end = 0;
    {
        EventLoop l2;
        CoreScheduler c2(l2);
        c2.setAllowedCores(32);
        auto burst = [&](CpuWork w) -> Task<void> {
            co_await c2.consume(w);
        };
        for (int i = 0; i < 32; ++i)
            loop.spawn(burst(CpuWork{0, 0, 0})); // placeholder
        (void)burst;
    }
    auto run_all = [&](double comp, double stall) -> SimTime {
        EventLoop l;
        CoreScheduler c(l);
        c.setAllowedCores(32);
        auto burst = [&](CpuWork w) -> Task<void> {
            co_await c.consume(w);
        };
        for (int i = 0; i < 32; ++i)
            l.spawn(burst(CpuWork{comp, stall, 0}));
        l.run();
        return l.now();
    };
    compute_end = run_all(1000, 0);
    stall_end = run_all(0, 1000);
    EXPECT_GT(compute_end, stall_end);
}

TEST(CoreScheduler, FifoQueueWhenOversubscribed)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    cpu.setAllowedCores(1);
    std::vector<int> order;
    auto burst = [&](int id) -> Task<void> {
        co_await cpu.consume(CpuWork{100, 0, 0});
        order.push_back(id);
    };
    for (int i = 0; i < 5; ++i)
        loop.spawn(burst(i));
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(CoreScheduler, TopologyMapping)
{
    EXPECT_EQ(CoreScheduler::socketOf(0), 0);
    EXPECT_EQ(CoreScheduler::socketOf(7), 0);
    EXPECT_EQ(CoreScheduler::socketOf(8), 1);
    EXPECT_EQ(CoreScheduler::socketOf(15), 1);
    EXPECT_EQ(CoreScheduler::socketOf(16), 0);
    EXPECT_EQ(CoreScheduler::socketOf(24), 1);
    EXPECT_EQ(CoreScheduler::siblingOf(0), 16);
    EXPECT_EQ(CoreScheduler::siblingOf(16), 0);
    EXPECT_EQ(CoreScheduler::siblingOf(15), 31);
    EXPECT_EQ(CoreScheduler::physicalOf(16), 0);
    EXPECT_EQ(CoreScheduler::physicalOf(31), 15);
}

/**
 * The core-pick scans as they were before the pick rules became mask
 * operations: the reference the mask picks are checked against.
 */
int
scanPickFreeCore(uint32_t busy, int allowed)
{
    auto busy_at = [busy](int c) { return (busy >> c & 1) != 0; };
    int fallback = -1;
    for (int c = 0; c < allowed; ++c) {
        if (busy_at(c))
            continue;
        if (!busy_at(CoreScheduler::siblingOf(c)))
            return c;
        if (fallback < 0)
            fallback = c;
    }
    return fallback;
}

int
scanPickFreeCoreFor(uint32_t busy, int allowed, uint64_t mask)
{
    if (mask == 0)
        return scanPickFreeCore(busy, allowed);
    auto busy_at = [busy](int c) { return (busy >> c & 1) != 0; };
    int busy_on[2] = {0, 0};
    int leased[2] = {0, 0};
    for (int c = 0; c < 32; ++c) {
        if (!(mask >> c & 1))
            continue;
        ++leased[CoreScheduler::socketOf(c)];
        if (busy_at(c))
            ++busy_on[CoreScheduler::socketOf(c)];
    }
    int pref = 0;
    if (busy_on[0] != busy_on[1])
        pref = busy_on[0] > busy_on[1] ? 0 : 1;
    else if (leased[0] != leased[1])
        pref = leased[0] > leased[1] ? 0 : 1;
    int best = -1;
    int best_rank = 4;
    for (int c = 0; c < allowed; ++c) {
        if (!(mask >> c & 1) || busy_at(c))
            continue;
        const bool sib_busy = busy_at(CoreScheduler::siblingOf(c));
        const int rank = (CoreScheduler::socketOf(c) == pref ? 0 : 2) +
                         (sib_busy ? 1 : 0);
        if (rank < best_rank) {
            best_rank = rank;
            best = c;
        }
    }
    return best;
}

TEST(CoreScheduler, MaskPicksMatchReferenceScans)
{
    std::mt19937_64 rng(12);
    // Random subset of `bits` in which each bit is set w.p. p/8.
    auto draw = [&rng](uint64_t bits, int p) {
        uint64_t m = 0;
        for (int b = 0; b < 64; ++b)
            if ((bits >> b & 1) && int(rng() % 8) < p)
                m |= uint64_t(1) << b;
        return m;
    };
    int checked = 0;
    for (int allowed = 1; allowed <= 32; ++allowed) {
        for (int i = 0; i < 400; ++i) {
            const int density = int(i % 9);
            // Even draws busy single threads, so free cores may have a
            // busy sibling; odd draws busy whole physical cores, so no
            // free core has one.
            const uint32_t pairs = uint32_t(draw(0xFFFFu, density));
            const uint32_t busy = i % 2
                                      ? pairs | pairs << 16
                                      : uint32_t(draw(0xFFFFFFFFu, density));
            ASSERT_EQ(CoreScheduler::pickFreeCore(busy, allowed),
                      scanPickFreeCore(busy, allowed))
                << "busy=" << busy << " allowed=" << allowed;
            // Leases: none, a random subset of the cores, random
            // 64-bit words, and one naming only cores that do not exist.
            for (uint64_t lease :
                 {uint64_t(0), draw(0xFFFFFFFFu, int(rng() % 9)),
                  draw(~uint64_t(0), int(rng() % 9)), uint64_t(1) << 40}) {
                ASSERT_EQ(
                    CoreScheduler::pickFreeCoreFor(busy, allowed, lease),
                    scanPickFreeCoreFor(busy, allowed, lease))
                    << "busy=" << busy << " allowed=" << allowed
                    << " lease=" << lease;
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 32 * 400 * 4);
}

TEST(SsdModel, BandwidthLimitsTransferTime)
{
    EventLoop loop;
    SsdModel ssd(loop);
    SimTime done = 0;
    auto io = [&]() -> Task<void> {
        co_await ssd.read(2500u << 20); // 2500 MB at 2500 MB/s = 1 s
        done = loop.now();
    };
    loop.spawn(io());
    loop.run();
    const double secs = toSeconds(done);
    EXPECT_NEAR(secs, 1.048, 0.01); // MiB vs MB plus base latency
    EXPECT_EQ(ssd.bytesRead(), 2500ull << 20);
}

TEST(SsdModel, ReadLimitThrottles)
{
    EventLoop loop;
    SsdModel ssd(loop);
    ssd.setReadLimit(100e6); // 100 MB/s
    SimTime done = 0;
    auto io = [&]() -> Task<void> {
        co_await ssd.read(uint64_t(100e6));
        done = loop.now();
    };
    loop.spawn(io());
    loop.run();
    EXPECT_NEAR(toSeconds(done), 1.0, 0.01);
}

TEST(SsdModel, ConcurrentRequestsQueue)
{
    EventLoop loop;
    SsdModel ssd(loop);
    ssd.setReadLimit(100e6);
    std::vector<SimTime> ends;
    auto io = [&]() -> Task<void> {
        co_await ssd.read(uint64_t(50e6)); // 0.5 s each at the limit
        ends.push_back(loop.now());
    };
    loop.spawn(io());
    loop.spawn(io());
    loop.run();
    ASSERT_EQ(ends.size(), 2u);
    EXPECT_NEAR(toSeconds(ends[0]), 0.5, 0.01);
    EXPECT_NEAR(toSeconds(ends[1]), 1.0, 0.01);
}

TEST(SsdModel, WritesIndependentOfReads)
{
    EventLoop loop;
    SsdModel ssd(loop);
    ssd.setReadLimit(10e6);
    SimTime wdone = 0;
    auto io = [&]() -> Task<void> {
        co_await ssd.write(uint64_t(120e6)); // 0.1 s at 1200 MB/s
        wdone = loop.now();
    };
    loop.spawn(io());
    loop.run();
    EXPECT_NEAR(toSeconds(wdone), 0.1, 0.01);
}

TEST(EventLoop, Determinism)
{
    auto run_once = [] {
        EventLoop loop;
        CoreScheduler cpu(loop);
        cpu.setAllowedCores(4);
        SsdModel ssd(loop);
        uint64_t hash = 0;
        auto session = [&](int id) -> Task<void> {
            for (int i = 0; i < 20; ++i) {
                co_await cpu.consume(CpuWork{double(100 + id * 13), 0, 0});
                co_await ssd.read(4096);
                hash = hash * 31 + uint64_t(loop.now()) + uint64_t(id);
            }
        };
        for (int i = 0; i < 8; ++i)
            loop.spawn(session(i));
        loop.run();
        return std::pair<uint64_t, uint64_t>{hash, loop.eventsDispatched()};
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

} // namespace
} // namespace dbsens
