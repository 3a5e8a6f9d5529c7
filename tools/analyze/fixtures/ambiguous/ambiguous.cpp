// Fixture: ambiguous calls under a live guard. Store::flush and Buffer::flush
// share a name, so `target()->flush()` (a receiver of no known type) reaches
// neither: the kCache -> kStore edge behind it is invisible to the lock-order
// checks, and the call is listed. A typed receiver resolves, an allow()
// justifies one, and an unguarded call is not listed.
enum class LockRank { kCache = 10, kStore = 20 };

class Store {
public:
    void flush() {
        MutexLock lock(mu_);
        ++n_;
    }

private:
    Mutex mu_{LockRank::kStore};
    int n_ = 0;
};

class Buffer {
public:
    void flush() { ++n_; }

private:
    int n_ = 0;
};

class Cache {
public:
    void evict() {
        MutexLock lock(mu_);
        target()->flush();  // expect(ambiguous-call-under-lock)
    }

    void evict_typed() {
        MutexLock lock(mu_);
        store_->flush();  // resolves to Store::flush (kCache -> kStore ascends): silent
    }

    void evict_justified() {
        MutexLock lock(mu_);
        // mw-analyze: allow(ambiguous-call-under-lock) both candidates take
        // only locks ranked above kCache
        target()->flush();
    }

    void evict_unlocked() { target()->flush(); }  // no guard live: silent

private:
    Store* target();
    Mutex mu_{LockRank::kCache};
    Store* store_ = nullptr;
};
