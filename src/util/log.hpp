// Minimal leveled logger. Negotiation and adaptation emit trace events the
// examples surface to the user (the role the 1996 prototype's information
// window played); benches run with logging off. Thread-safe: the level is
// atomic, every line is composed off-lock and emitted in a single write, and
// a thread-local tag and request id (service workers log as
// "w<worker>/r<request>") keep interleaved worker output attributable.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>

namespace qosnp {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  bool enabled(LogLevel level) const { return level >= this->level(); }

  void write(LogLevel level, const std::string& component, const std::string& message);

 private:
  Logger() = default;
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  std::mutex mu_;
};

/// Thread-local tag stamped onto every line this thread logs (empty = no
/// tag). Service workers use "w<worker>".
void set_log_tag(std::string tag);
const std::string& log_tag();

/// RAII request scope: while alive, the calling thread's lines carry
/// "/r<request>" after its tag; the previous request is restored on exit.
/// It only stores the id, so a request whose lines are all filtered out
/// costs no string formatting.
class ScopedLogRequest {
 public:
  explicit ScopedLogRequest(std::uint64_t request_id);
  ~ScopedLogRequest();

  ScopedLogRequest(const ScopedLogRequest&) = delete;
  ScopedLogRequest& operator=(const ScopedLogRequest&) = delete;

 private:
  std::optional<std::uint64_t> previous_;
};

namespace detail {
inline void log_format(std::ostringstream&) {}
template <typename T, typename... Rest>
void log_format(std::ostringstream& os, const T& v, const Rest&... rest) {
  os << v;
  log_format(os, rest...);
}
}  // namespace detail

template <typename... Args>
void log_at(LogLevel level, const std::string& component, const Args&... args) {
  Logger& lg = Logger::instance();
  if (!lg.enabled(level)) return;
  std::ostringstream os;
  detail::log_format(os, args...);
  lg.write(level, component, os.str());
}

#define QOSNP_LOG_TRACE(component, ...) ::qosnp::log_at(::qosnp::LogLevel::kTrace, component, __VA_ARGS__)
#define QOSNP_LOG_DEBUG(component, ...) ::qosnp::log_at(::qosnp::LogLevel::kDebug, component, __VA_ARGS__)
#define QOSNP_LOG_INFO(component, ...) ::qosnp::log_at(::qosnp::LogLevel::kInfo, component, __VA_ARGS__)
#define QOSNP_LOG_WARN(component, ...) ::qosnp::log_at(::qosnp::LogLevel::kWarn, component, __VA_ARGS__)
#define QOSNP_LOG_ERROR(component, ...) ::qosnp::log_at(::qosnp::LogLevel::kError, component, __VA_ARGS__)

}  // namespace qosnp
