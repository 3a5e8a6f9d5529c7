// Monotonic wall-clock stopwatch plus the time plumbing shared by the
// measurement harness, benches, and the serving layer. All raw std::chrono
// access in src/ is confined to this header and common/sync.hpp (mw-analyze:
// time-arith-confined); everything else deals in double seconds. Timed
// condition waits live on mw::CondVar (common/sync.hpp), which keeps the
// same double-seconds convention.
#pragma once

#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace mw {

/// A restartable monotonic stopwatch. Construction starts it.
class Stopwatch {
public:
    Stopwatch() : start_(Clock::now()) {}

    /// Restart and return the elapsed seconds since the previous start.
    double lap() {
        const auto now = Clock::now();
        const double s = std::chrono::duration<double>(now - start_).count();
        start_ = now;
        return s;
    }

    /// Elapsed seconds since the last (re)start without restarting.
    [[nodiscard]] double elapsed() const {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    void restart() { start_ = Clock::now(); }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/// Told when a clock that moves only on request (ManualClock) has moved, so a
/// waiter for a deadline on that clock can block without polling (DESIGN.md
/// §8). The listener decides which of its waiters the move has made due.
class ClockListener {
public:
    virtual ~ClockListener() = default;

    /// Called after every move with the new time, on the moving thread, with
    /// the clock's listener lock (rank kClock) held: it may take only locks
    /// ranked above kClock, and must not move the clock.
    virtual void clock_moved(double now) = 0;
};

/// Abstract time source: seconds since an arbitrary epoch, monotone
/// non-decreasing. Components that must run on both a real and a simulated
/// timeline (the mw::serve layer in particular) take time ONLY through this
/// interface — benches inject a WallClock, deterministic tests a ManualClock.
/// mw-analyze's `clock-confinement` check enforces the discipline.
class Clock {
public:
    virtual ~Clock() = default;

    [[nodiscard]] virtual double now() const = 0;

    /// Real seconds a waiter for `deadline` may block before it must read
    /// now() again: the time left on a clock that runs by itself, infinity
    /// on one that moves only on request (it calls its listeners instead).
    [[nodiscard]] virtual double real_wait_s(double deadline) const {
        return deadline - now();
    }

    /// Register / unregister a listener (a clock that runs by itself needs
    /// none and ignores them). A listener must be removed before it dies.
    virtual void add_listener(ClockListener& listener) const { (void)listener; }
    virtual void remove_listener(ClockListener& listener) const { (void)listener; }
};

/// Real time: seconds elapsed since construction.
class WallClock final : public Clock {
public:
    [[nodiscard]] double now() const override { return watch_.elapsed(); }

private:
    Stopwatch watch_;
};

/// Manually driven time for deterministic tests: now() only moves when the
/// test calls set()/advance(), and every move calls the listeners. Safe to
/// move while other threads read. now_ is seq_cst on both sides: a waiter
/// publishes its deadline and then reads now(), a mover stores now_ and then
/// reads the deadline (in its listener), and only the total order makes one
/// of the two see the other.
class ManualClock final : public Clock {
public:
    explicit ManualClock(double start_s = 0.0) : now_(start_s) {}

    [[nodiscard]] double now() const override {
        return now_.load(std::memory_order_seq_cst);
    }
    [[nodiscard]] double real_wait_s(double deadline) const override {
        (void)deadline;
        return std::numeric_limits<double>::infinity();
    }

    void set(double t) {
        now_.store(t, std::memory_order_seq_cst);
        moved(t);
    }
    void advance(double dt) { moved(now_.fetch_add(dt, std::memory_order_seq_cst) + dt); }

    void add_listener(ClockListener& listener) const override {
        const MutexLock lock(mutex_);
        listeners_.push_back(&listener);
    }
    void remove_listener(ClockListener& listener) const override {
        const MutexLock lock(mutex_);
        std::erase(listeners_, &listener);
    }

private:
    void moved(double now) {
        const MutexLock lock(mutex_);
        for (ClockListener* listener : listeners_) listener->clock_moved(now);
    }

    Atomic<double> now_;
    mutable Mutex mutex_{LockRank::kClock};
    mutable std::vector<ClockListener*> listeners_ MW_GUARDED_BY(mutex_);
};

/// Sleep the calling thread for `seconds` (no-op when <= 0).
inline void sleep_for_seconds(double seconds) {
    if (seconds <= 0.0) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace mw
