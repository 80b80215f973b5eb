// Minimal leveled logging to stderr. Benches and examples use this for
// progress lines; every message prints.
#pragma once

#include <sstream>
#include <string>

namespace ganopc {

enum class LogLevel { Info, Warn };

namespace detail {
void log_emit(LogLevel level, const std::string& msg);
}

}  // namespace ganopc

#define GANOPC_LOG(level, expr)                      \
  do {                                               \
    std::ostringstream oss_;                         \
    oss_ << expr;                                    \
    ::ganopc::detail::log_emit(level, oss_.str());   \
  } while (0)

#define GANOPC_INFO(expr) GANOPC_LOG(::ganopc::LogLevel::Info, expr)
#define GANOPC_WARN(expr) GANOPC_LOG(::ganopc::LogLevel::Warn, expr)
