/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single-threaded priority-queue event loop over simulated
 * nanoseconds. All cross-session resumptions are posted through the
 * queue (never resumed inline), which keeps stack depth bounded and
 * event ordering deterministic (FIFO among same-time events).
 *
 * Queue entries are small trivially copyable records ordered by
 * (time, seq). A coroutine resumption (the common case) stores the
 * raw handle; a callback lives in a side slab the entry indexes, so
 * the heap never moves a std::function.
 */

#ifndef DBSENS_SIM_EVENT_LOOP_H
#define DBSENS_SIM_EVENT_LOOP_H

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "core/sim_time.h"
#include "sim/task.h"

namespace dbsens {

/**
 * Identifies an independently killable group of events. Domain 0 is
 * the root domain and can never be killed; every other domain models
 * one incarnation of a crashable entity (e.g. a cluster node): all
 * work it schedules inherits its domain, and killDomain() makes the
 * loop drop that work at dispatch without resuming any of its
 * coroutine frames.
 */
using DomainId = uint32_t;

/**
 * The simulation kernel. Owns the event queue, the simulated clock,
 * and the frames of detached (spawned) root tasks.
 */
class EventLoop
{
  public:
    EventLoop() = default;
    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Schedule a callback at an absolute simulated time (>= now). */
    void at(SimTime t, std::function<void()> fn);

    /** Schedule a callback after a delay. */
    void after(SimDuration d, std::function<void()> fn) { at(now_ + d, std::move(fn)); }

    /** Post a coroutine resumption at the current time (FIFO). */
    void post(std::coroutine_handle<> h);

    /** Post a coroutine resumption at an absolute time. */
    void postAt(SimTime t, std::coroutine_handle<> h);

    /**
     * Detach a root task into the loop: the loop resumes it now and
     * reclaims its frame when it completes.
     */
    void spawn(Task<void> task);

    /** Number of spawned root tasks that have not yet completed. */
    int activeTasks() const { return activeTasks_; }

    /** Run until the event queue is empty. */
    void run();

    /**
     * Run until the given absolute time (events at exactly `t` run).
     * The clock is advanced to `t` even if the queue drains earlier.
     */
    void runUntil(SimTime t);

    /** True once stop() has been called. */
    bool stopped() const { return stopped_; }

    /**
     * Stop processing: run() / runUntil() return after the current
     * event. Used to end throughput experiments at a time limit.
     */
    void stop() { stopped_ = true; }

    /** Total events dispatched (for determinism tests). */
    uint64_t eventsDispatched() const { return dispatched_; }

    /** Allocate a fresh (alive) domain id. */
    DomainId newDomain() { return nextDomain_++; }

    /**
     * Domain new events are tagged with. Set while dispatching an
     * event (events inherit the dispatching event's domain) or via
     * DomainScope.
     */
    DomainId currentDomain() const { return currentDomain_; }

    /**
     * Kill a domain: queued and future events tagged with it are
     * dropped at dispatch, so no coroutine belonging to it ever
     * resumes again (frames leak, same as EventLoop teardown).
     * Domain 0 is the root domain and cannot be killed.
     */
    void killDomain(DomainId d);

    /** True unless `d` has been killed. */
    bool domainAlive(DomainId d) const
    {
        return deadDomains_.empty() || !deadDomains_.count(d);
    }

    // Internal: called from TaskPromiseBase when a detached root task
    // reaches final suspension.
    void rootTaskDone(std::coroutine_handle<> h);

  private:
    /**
     * One queued event: a coroutine resumption when `handle` is set,
     * else the callback in `callbacks_[slot]`. `seq` is unique, so
     * (time, seq) is a total order and any heap pops the same
     * sequence.
     */
    struct Entry
    {
        SimTime time;
        uint64_t seq;
        std::coroutine_handle<> handle;
        DomainId domain;
        uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.time != b.time ? a.time > b.time : a.seq > b.seq;
        }
    };

    void push(SimTime t, std::coroutine_handle<> h, uint32_t slot);
    bool
    empty() const
    {
        return heap_.empty() && laneHead_ == lane_.size();
    }
    /** True when the (time, seq)-least entry is the lane's front. */
    bool
    laneFirst() const
    {
        return laneHead_ != lane_.size() &&
               (heap_.empty() || Later{}(heap_.top(), lane_[laneHead_]));
    }
    /** Remove and return the (time, seq)-least entry (non-empty). */
    Entry pop();
    /** Move a callback out of its slab slot and free the slot. */
    std::function<void()> takeCallback(uint32_t slot);
    void dispatchOne();
    void reclaimFinished();

    /**
     * Entries due when they are posted (post, spawn, at(now())) skip
     * the heap: they arrive in (time, seq) order, so this FIFO lane
     * stays sorted and the next entry is the lesser of its front and
     * the heap's top.
     */
    std::vector<Entry> lane_;
    size_t laneHead_ = 0;
    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    /** Callback slab: slots of queued at()/after() callbacks. */
    std::vector<std::function<void()>> callbacks_;
    std::vector<uint32_t> freeSlots_;
    std::vector<std::coroutine_handle<>> finished_;
    std::unordered_set<DomainId> deadDomains_;
    SimTime now_ = 0;
    uint64_t seq_ = 0;
    uint64_t dispatched_ = 0;
    int activeTasks_ = 0;
    DomainId currentDomain_ = 0;
    DomainId nextDomain_ = 1;
    bool stopped_ = false;

    friend class DomainScope;
};

/**
 * RAII override of the loop's current domain: everything scheduled
 * inside the scope (including coroutines spawned from it) belongs to
 * the given domain and dies with it.
 */
class DomainScope
{
  public:
    DomainScope(EventLoop &loop, DomainId d)
        : loop_(loop), prev_(loop.currentDomain_)
    {
        loop_.currentDomain_ = d;
    }
    ~DomainScope() { loop_.currentDomain_ = prev_; }

    DomainScope(const DomainScope &) = delete;
    DomainScope &operator=(const DomainScope &) = delete;

  private:
    EventLoop &loop_;
    DomainId prev_;
};

/** Awaitable: suspend the current coroutine for a simulated duration. */
class SimDelay
{
  public:
    SimDelay(EventLoop &loop, SimDuration d) : loop(loop), delay(d) {}

    bool await_ready() const noexcept { return delay <= 0; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        loop.postAt(loop.now() + delay, h);
    }

    void await_resume() const noexcept {}

  private:
    EventLoop &loop;
    SimDuration delay;
};

} // namespace dbsens

#endif // DBSENS_SIM_EVENT_LOOP_H
