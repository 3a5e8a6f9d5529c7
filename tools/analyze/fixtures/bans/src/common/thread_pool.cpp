// Fixture: the one home of std::thread.
void spawn() { std::thread t(fn); }
