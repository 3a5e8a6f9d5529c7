// Fixture: blocking calls under a live guard — a bare sleep, a transitive
// Transport::send (qualified match through the receiver type), a sleep
// reached through a helper's call graph, and a suppressed fprintf standing
// in for the logger's justified sink write (which does not make its callers
// block). A CondVar wait on the held guard is legal.
enum class LockRank { kQueue = 10, kRouter = 20 };

class Transport {
public:
    void send(int frame) { count_ += frame; }

private:
    int count_ = 0;
};

class Queue {
public:
    void drain() {
        MutexLock lock(mu_);
        sleep_for_seconds(0.1);  // expect(blocking-under-lock)
    }

    void idle() {
        sleep_for_seconds(0.1);  // no guard live: silent
    }

    void emit() {
        MutexLock lock(mu_);
        fprintf(stderr_, "x");  // mw-analyze: allow(blocking-under-lock) sink lock exists to serialize this write
    }

    void emit_above() {
        MutexLock lock(mu_);
        // mw-analyze: allow(blocking-under-lock) standalone comment on the
        // preceding line also suppresses (for call sites that wrap)
        fprintf(stderr_, "y");
    }

private:
    Mutex mu_{LockRank::kQueue};
    int stderr_ = 2;
};

class Router {
public:
    void submit() {
        MutexLock lock(mu_);
        net_->send(7);  // expect(blocking-under-lock)
    }

private:
    Mutex mu_{LockRank::kRouter};
    Transport* net_ = nullptr;
};

class Drainer {
public:
    void drain() {
        MutexLock lock(mu_);
        pause();  // expect(blocking-under-lock)
    }

    void settle() {
        MutexLock lock(mu_);
        pause_twice();  // expect(blocking-under-lock)
    }

    void await_work() {
        MutexLock lock(mu_);
        work_.wait(lock, [this] { return ready_; });  // waiting releases the guard: silent
    }

    void log_locked() {
        MutexLock lock(mu_);
        log_line();  // the sink write is justified where it happens: silent
    }

private:
    void pause() { sleep_for_seconds(0.1); }  // no guard live: silent
    void pause_twice() {
        pause();
        pause();
    }
    void log_line() {
        fprintf(sink_, "z");  // mw-analyze: allow(blocking-under-lock) sink write, no guard here
    }

    Mutex mu_{LockRank::kQueue};
    CondVar work_;
    bool ready_ = false;
    int sink_ = 2;
};
