#include "sim/event_loop.h"

#include "core/logging.h"

namespace dbsens {

namespace detail {

void
TaskPromiseBase::notifyRootDone(std::coroutine_handle<> h) noexcept
{
    if (ownerLoop)
        ownerLoop->rootTaskDone(h);
}

} // namespace detail

EventLoop::~EventLoop()
{
    // Any still-pending root tasks leak their frames intentionally:
    // queued entries may hold handles into them. Queued callbacks are
    // destroyed with the slab.
    reclaimFinished();
}

void
EventLoop::push(SimTime t, std::coroutine_handle<> h, uint32_t slot)
{
    if (t < now_)
        panic("EventLoop::at scheduling into the past");
    const Entry e{t, seq_++, h, currentDomain_, slot};
    if (t == now_)
        lane_.push_back(e);
    else
        heap_.push(e);
}

void
EventLoop::at(SimTime t, std::function<void()> fn)
{
    if (freeSlots_.empty()) {
        freeSlots_.push_back(uint32_t(callbacks_.size()));
        callbacks_.emplace_back();
    }
    const uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    callbacks_[slot] = std::move(fn);
    push(t, nullptr, slot);
}

std::function<void()>
EventLoop::takeCallback(uint32_t slot)
{
    std::function<void()> fn = std::move(callbacks_[slot]);
    callbacks_[slot] = nullptr;
    freeSlots_.push_back(slot);
    return fn;
}

void
EventLoop::killDomain(DomainId d)
{
    if (d == 0)
        panic("EventLoop::killDomain on the root domain");
    deadDomains_.insert(d);
}

void
EventLoop::post(std::coroutine_handle<> h)
{
    push(now_, h, 0);
}

void
EventLoop::postAt(SimTime t, std::coroutine_handle<> h)
{
    push(t, h, 0);
}

void
EventLoop::spawn(Task<void> task)
{
    auto h = task.release();
    if (!h)
        panic("EventLoop::spawn on empty task");
    h.promise().ownerLoop = this;
    ++activeTasks_;
    postAt(now_, h);
}

void
EventLoop::rootTaskDone(std::coroutine_handle<> h)
{
    --activeTasks_;
    // The coroutine is suspended at final_suspend; defer destruction
    // to after the resume() call that got us here returns.
    finished_.push_back(h);
}

void
EventLoop::reclaimFinished()
{
    for (auto h : finished_)
        h.destroy();
    finished_.clear();
}

EventLoop::Entry
EventLoop::pop()
{
    if (!laneFirst()) {
        const Entry e = heap_.top();
        heap_.pop();
        return e;
    }
    const Entry e = lane_[laneHead_++];
    if (laneHead_ == lane_.size()) {
        lane_.clear();
        laneHead_ = 0;
    }
    return e;
}

void
EventLoop::dispatchOne()
{
    const Entry ev = pop();
    if (!domainAlive(ev.domain)) {
        // The event belongs to a killed incarnation: drop it without
        // resuming (the frame it holds leaks, as in ~EventLoop) and
        // destroy a dropped callback's captures now.
        if (!ev.handle)
            takeCallback(ev.slot);
        return;
    }
    now_ = ev.time;
    ++dispatched_;
    const DomainId prev = currentDomain_;
    currentDomain_ = ev.domain;
    if (ev.handle) {
        ev.handle.resume();
        reclaimFinished();
    } else {
        // Moved out first: the callback may schedule more callbacks,
        // which can reuse its slot or grow the slab.
        takeCallback(ev.slot)();
    }
    currentDomain_ = prev;
}

void
EventLoop::run()
{
    stopped_ = false;
    while (!empty() && !stopped_)
        dispatchOne();
    reclaimFinished();
}

void
EventLoop::runUntil(SimTime t)
{
    stopped_ = false;
    while (!empty() && !stopped_ &&
           (laneFirst() ? lane_[laneHead_] : heap_.top()).time <= t)
        dispatchOne();
    reclaimFinished();
    if (!stopped_ && now_ < t)
        now_ = t;
}

} // namespace dbsens
