// Fixture: the one home of raw sync primitives and (with timer.hpp) of
// std::chrono.
std::mutex m;
std::chrono::duration<double> d;
