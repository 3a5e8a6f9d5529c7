// Fixture: the repo-wide identifier bans, one case per line. A line with an
// expect marker must fire exactly that check; every other line must stay
// silent. The sibling files cover each ban's sanctioned home.
#include <cassert>  // expect(raw-assert)
#include <thread>
#define CHECKED(x) assert(x)  // expect(raw-assert)

void cases(int x) {
    std::thread t(fn);  // expect(naked-thread)
    std::thread t2(fn);  // mw-analyze: allow(naked-thread) checker-owned
    std::this_thread::yield();
    const unsigned cores = std::thread::hardware_concurrency();
    std::mutex m;  // expect(raw-sync-primitive)
    std::unique_lock<std::mutex> l(m);  // expect(raw-sync-primitive)
    assert(x > 0);  // expect(raw-assert)
    MW_ASSERT(x > 0);
    static_assert(sizeof(int) == 4);
    std::abort();  // expect(raw-abort)
    exit(1);  // expect(raw-abort)
    Process::exit(1);
    auto t0 = std::chrono::steady_clock::now();  // expect(time-arith-confined)
    Stopwatch sw;
    const char* s = "std::mutex std::thread assert(";
    // The analyzer's own atomic checks still fire here; no ban above does.
    std::atomic<int> v{0};  // expect(raw-atomic)
    n_.fetch_add(1, std::memory_order_relaxed);  // expect(relaxed-order-justified)
    const MutexLock lock(mutex_);
}
