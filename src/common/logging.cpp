#include "common/logging.hpp"

#include <cstdio>
#include <string>

#include "common/sync.hpp"

namespace mw::log {
namespace {

Mutex g_sink_mutex{LockRank::kLogger};

const char* level_tag(Level level) {
    switch (level) {
        case Level::kDebug: return "DEBUG";
        case Level::kInfo: return "INFO ";
        case Level::kWarn: return "WARN ";
        case Level::kError: return "ERROR";
        case Level::kOff: return "OFF  ";
    }
    return "?";
}

}  // namespace

Level level() { return Level::kWarn; }

void emit(Level lvl, std::string_view msg) {
    if (lvl < level()) return;
    const MutexLock lock(g_sink_mutex);
    // mw-analyze: allow(blocking-under-lock) serializing this exact write is the
    // sink lock's whole purpose; nothing else ever nests under kLogger
    std::fprintf(stderr, "[mw %s] %.*s\n", level_tag(lvl), static_cast<int>(msg.size()),
                 msg.data());
}

}  // namespace mw::log
