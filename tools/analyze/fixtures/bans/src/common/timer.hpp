// Fixture: raw clocks are confined to this header (and sync.hpp).
inline double now() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
