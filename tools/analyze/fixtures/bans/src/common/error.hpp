// Fixture: the one home of std::abort().
inline void die() { std::abort(); }
