// WorkerPark: where lock-free hot-path workers wait when they have nothing
// to do (DESIGN.md §15). An idle worker parks until a push or close(); a
// gathering worker parks until a push, close() or its gather deadline on the
// injected clock. Nothing sleeps in real-time slices.
//
// A push stays lock-free while no worker is parked: notify_push() is one
// read-modify-write of `parked_`. The protocol that keeps a wakeup from being
// lost is the classic store-buffering pair, made safe with RMWs on one
// counter: a parker increments `parked_` (holding the park mutex) and then
// looks at the queue; a pusher pushes and then reads `parked_` with an RMW.
// Both RMWs sit in one modification order, so either the pusher's read sees
// the parker (and wakes it under the mutex, which the parker holds until it
// blocks), or the parker's increment reads the pusher's value and thereby
// synchronizes with the push it then finds.
//
// Deadlines: on a ManualClock a move wakes only the waiters whose deadline
// it has passed (the park is the clock's listener); `next_deadline_` lets a
// move that makes nobody due return without taking the mutex.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/sync.hpp"
#include "common/timer.hpp"

namespace mw::serve {

/// Thread safety: every member may be called from any thread.
class WorkerPark final : public ClockListener {
public:
    WorkerPark(const Clock& clock, std::size_t workers);

    /// Pusher side, after a successful push: wakes every parked worker, and
    /// takes no lock when none is parked.
    void notify_push();

    /// Wake every parked worker for good; later park() calls return at once.
    void close();

    /// Block until a push or close() after this call began, the clock
    /// reaching `deadline` (infinity: no deadline), or `ready()` holding.
    /// `ready` runs under the park mutex, so it may only read atomics.
    template <typename Ready>
    void park(double deadline, Ready ready) {
        Waiter self;
        self.deadline = deadline;
        MutexLock lock(mutex_);
        // Announce before the last look at the queue (see the header note).
        parked_.fetch_add(1, std::memory_order_acq_rel);
        waiters_.push_back(&self);
        refresh_next_deadline();
        const std::uint64_t seen = pushes_;
        const auto woken = [&] {
            mutex_.assert_held();
            return pushes_ != seen || closed_ || clock_->now() >= deadline || ready();
        };
        const double real_s = clock_->real_wait_s(deadline);
        if (std::isinf(real_s)) {
            self.cv.wait(lock, woken);
        } else {
            (void)self.cv.wait_for(lock, real_s, woken);
        }
        std::erase(waiters_, &self);
        refresh_next_deadline();
        parked_.fetch_sub(1, std::memory_order_acq_rel);
    }

    /// ClockListener: wake the parked workers whose deadline `now` passed.
    void clock_moved(double now) override;

private:
    struct Waiter {
        CondVar cv;
        double deadline = 0.0;
    };

    void refresh_next_deadline() MW_REQUIRES(mutex_);

    const Clock* clock_;
    Mutex mutex_{LockRank::kServePark};
    std::vector<Waiter*> waiters_ MW_GUARDED_BY(mutex_);
    std::uint64_t pushes_ MW_GUARDED_BY(mutex_) = 0;
    bool closed_ MW_GUARDED_BY(mutex_) = false;
    Atomic<std::size_t> parked_{0};
    /// Earliest deadline among parked workers (infinity when none); written
    /// under the mutex, read by clock_moved() before it takes the mutex.
    Atomic<double> next_deadline_{std::numeric_limits<double>::infinity()};
};

}  // namespace mw::serve
