#include "common/logging.hpp"

#include <cstdio>
#include <mutex>

namespace ganopc {

namespace {
std::mutex g_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
  }
  return "?";
}
}  // namespace

namespace detail {
void log_emit(LogLevel level, const std::string& msg) {
  std::lock_guard lock(g_mutex);
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}
}  // namespace detail

}  // namespace ganopc
