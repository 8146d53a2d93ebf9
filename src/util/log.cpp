#include "util/log.hpp"

#include <iostream>
#include <utility>

namespace qosnp {

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

namespace {

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

std::string& tls_tag() {
  thread_local std::string tag;
  return tag;
}

std::optional<std::uint64_t>& tls_request() {
  thread_local std::optional<std::uint64_t> request;
  return request;
}

}  // namespace

void set_log_tag(std::string tag) { tls_tag() = std::move(tag); }

const std::string& log_tag() { return tls_tag(); }

ScopedLogRequest::ScopedLogRequest(std::uint64_t request_id) : previous_(tls_request()) {
  tls_request() = request_id;
}

ScopedLogRequest::~ScopedLogRequest() { tls_request() = previous_; }

void Logger::write(LogLevel level, const std::string& component, const std::string& message) {
  // Compose the whole line first so the locked section is one insertion:
  // concurrent workers can never interleave mid-line.
  std::string tag = log_tag();
  if (const auto& request = tls_request()) tag += "/r" + std::to_string(*request);
  std::string line;
  line.reserve(component.size() + message.size() + tag.size() + 16);
  line += '[';
  line += level_name(level);
  line += "] ";
  if (!tag.empty()) {
    line += '(';
    line += tag;
    line += ") ";
  }
  line += component;
  line += ": ";
  line += message;
  line += '\n';
  std::lock_guard lk(mu_);
  std::clog << line;
}

}  // namespace qosnp
