#include "serve/worker_park.hpp"

#include <algorithm>

namespace mw::serve {

WorkerPark::WorkerPark(const Clock& clock, std::size_t workers) : clock_(&clock) {
    const MutexLock lock(mutex_);
    waiters_.reserve(workers);  // park() then never allocates
}

void WorkerPark::notify_push() {
    // An RMW, not a load: see the header note on the store-buffering pair.
    if (parked_.fetch_add(0, std::memory_order_acq_rel) == 0) return;
    const MutexLock lock(mutex_);
    ++pushes_;
    for (Waiter* w : waiters_) w->cv.notify_one();
}

void WorkerPark::close() {
    const MutexLock lock(mutex_);
    closed_ = true;
    for (Waiter* w : waiters_) w->cv.notify_one();
}

void WorkerPark::clock_moved(double now) {
    // seq_cst pairs with refresh_next_deadline()'s store and the clock's
    // own seq_cst now_ (ManualClock).
    if (now < next_deadline_.load(std::memory_order_seq_cst)) return;
    const MutexLock lock(mutex_);
    for (Waiter* w : waiters_) {
        if (w->deadline <= now) w->cv.notify_one();
    }
}

void WorkerPark::refresh_next_deadline() {
    mutex_.assert_held();
    double next = std::numeric_limits<double>::infinity();
    for (const Waiter* w : waiters_) next = std::min(next, w->deadline);
    next_deadline_.store(next, std::memory_order_seq_cst);
}

}  // namespace mw::serve
