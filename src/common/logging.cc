#include "src/common/logging.h"

#include <strings.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

namespace asbase {
namespace {

std::mutex g_log_mutex;

// Default level, overridable by ALLOY_LOG_LEVEL before any explicit
// SetLogLevel call. Parsed once, on the first logging-API use. A bad value
// is reported straight to stderr: AS_LOG would re-enter Level().
int InitialLevel() {
  const char* env = std::getenv("ALLOY_LOG_LEVEL");
  if (env == nullptr || *env == '\0') {
    return static_cast<int>(LogLevel::kWarn);
  }
  const std::optional<LogLevel> level = ParseLogLevel(env);
  if (!level.has_value()) {
    std::fprintf(stderr,
                 "ALLOY_LOG_LEVEL=\"%s\" is not a log level (trace, debug, "
                 "info, warn, error, fatal or 0-5); using warn\n",
                 env);
    return static_cast<int>(LogLevel::kWarn);
  }
  return static_cast<int>(*level);
}

std::atomic<int>& Level() {
  static std::atomic<int> level{InitialLevel()};
  return level;
}

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "T";
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarn:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

// Per-thread structured context rendered into every line's prefix. Plain
// thread_locals (not atomics): only this thread reads or writes them.
thread_local int tls_log_shard = -1;
thread_local std::string tls_log_workflow;

}  // namespace

ScopedLogContext::ScopedLogContext(int shard, std::string workflow)
    : previous_shard_(tls_log_shard),
      previous_workflow_(std::move(tls_log_workflow)) {
  tls_log_shard = shard;
  tls_log_workflow = std::move(workflow);
}

ScopedLogContext::~ScopedLogContext() {
  tls_log_shard = previous_shard_;
  tls_log_workflow = std::move(previous_workflow_);
}

uint64_t ThreadId() {
  static thread_local uint64_t tid = [] {
#if defined(SYS_gettid)
    long id = syscall(SYS_gettid);
    if (id > 0) {
      return static_cast<uint64_t>(id);
    }
#endif
    return static_cast<uint64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
  }();
  return tid;
}

std::optional<LogLevel> ParseLogLevel(std::string_view text) {
  if (text.size() == 1 && text[0] >= '0' && text[0] <= '5') {
    return static_cast<LogLevel>(text[0] - '0');
  }
  static constexpr std::pair<const char*, LogLevel> kNames[] = {
      {"trace", LogLevel::kTrace}, {"debug", LogLevel::kDebug},
      {"info", LogLevel::kInfo},   {"warn", LogLevel::kWarn},
      {"warning", LogLevel::kWarn}, {"error", LogLevel::kError},
      {"fatal", LogLevel::kFatal}};
  for (const auto& [name, level] : kNames) {
    if (text.size() == std::strlen(name) &&
        strncasecmp(text.data(), name, text.size()) == 0) {
      return level;
    }
  }
  return std::nullopt;
}

void SetLogLevel(LogLevel level) {
  Level().store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(Level().load(std::memory_order_relaxed));
}

void LogMessage(LogLevel level, std::string_view file, int line,
                std::string_view message) {
  // Strip the directory prefix; paths in this repo are rooted at src/.
  size_t slash = file.rfind('/');
  if (slash != std::string_view::npos) {
    file.remove_prefix(slash + 1);
  }
  auto now = std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
  // `shard=N wf=name ` from the thread's ScopedLogContext, if any.
  std::string context;
  if (tls_log_shard >= 0) {
    context += "shard=" + std::to_string(tls_log_shard) + " ";
  }
  if (!tls_log_workflow.empty()) {
    context += "wf=" + tls_log_workflow + " ";
  }
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::fprintf(stderr, "[%s %10lld.%06llds t%llu %.*s:%d] %s%.*s\n",
               LevelTag(level), static_cast<long long>(now / 1000000),
               static_cast<long long>(now % 1000000),
               static_cast<unsigned long long>(ThreadId()),
               static_cast<int>(file.size()), file.data(), line,
               context.c_str(),
               static_cast<int>(message.size()), message.data());
}

LogLine::~LogLine() {
  LogMessage(level_, file_, line_, stream_.str());
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace asbase
