// Minimal leveled logger. Single global sink (stderr), thread-safe.
#pragma once

#include <string_view>

#include "common/format.hpp"

namespace mw::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// The minimum level that is emitted: kWarn, so library code is silent in
/// tests/benches unless something is wrong.
Level level();

/// Emit a pre-formatted message at the given level.
void emit(Level level, std::string_view msg);

template <typename... Args>
void debug(std::string_view fmt, const Args&... args) {
    if (level() <= Level::kDebug) emit(Level::kDebug, ::mw::format(fmt, args...));
}
template <typename... Args>
void info(std::string_view fmt, const Args&... args) {
    if (level() <= Level::kInfo) emit(Level::kInfo, ::mw::format(fmt, args...));
}
template <typename... Args>
void warn(std::string_view fmt, const Args&... args) {
    if (level() <= Level::kWarn) emit(Level::kWarn, ::mw::format(fmt, args...));
}
template <typename... Args>
void error(std::string_view fmt, const Args&... args) {
    if (level() <= Level::kError) emit(Level::kError, ::mw::format(fmt, args...));
}

}  // namespace mw::log
