// Leveled logging for the whole stack.
//
// Logging goes to stderr so benchmark/table output on stdout stays parseable.
// The level is process-global and defaults to kWarn so benches stay quiet;
// the `ALLOY_LOG_LEVEL` env var (see ParseLogLevel, read on first use)
// overrides the default, and SetLogLevel overrides both.

#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace asbase {

// Kernel thread id of the calling thread (cached per thread). Logging tags
// every line with it; the obs trace layer uses it as the Chrome `tid`.
uint64_t ThreadId();

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kFatal = 5,
};

void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// An `ALLOY_LOG_LEVEL` value: a level name in any case ("trace", "debug",
// "info", "warn" or "warning", "error", "fatal") or a single digit 0-5.
// Anything else ("3x", "9", "banana", " 2") is nullopt.
std::optional<LogLevel> ParseLogLevel(std::string_view text);

// Emits one formatted line; called by the LOG macro, not directly.
void LogMessage(LogLevel level, std::string_view file, int line,
                std::string_view message);

// Thread-local structured log context: while one of these is alive, every
// log line from this thread carries a `shard=N wf=name` prefix, so
// interleaved shard logs (ALLOY_VISOR_SHARDS > 1) stay attributable. Nests:
// the destructor restores whatever context the constructor replaced. shard
// < 0 omits the shard field; an empty workflow omits the wf field.
class ScopedLogContext {
 public:
  ScopedLogContext(int shard, std::string workflow);
  ~ScopedLogContext();

  ScopedLogContext(const ScopedLogContext&) = delete;
  ScopedLogContext& operator=(const ScopedLogContext&) = delete;

 private:
  int previous_shard_;
  std::string previous_workflow_;
};

// Stream-collecting helper; logs (and aborts for kFatal) in the destructor.
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogLine();

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace asbase

#define AS_LOG(level)                                                  \
  if (::asbase::LogLevel::level < ::asbase::GetLogLevel()) {           \
  } else                                                               \
    ::asbase::LogLine(::asbase::LogLevel::level, __FILE__, __LINE__)

// Check that aborts in all build modes (kernel-ish code should not limp on).
#define AS_CHECK(cond)                                        \
  if (cond) {                                                 \
  } else                                                      \
    ::asbase::LogLine(::asbase::LogLevel::kFatal, __FILE__,   \
                      __LINE__)                               \
        << "check failed: " #cond " "

#endif  // SRC_COMMON_LOGGING_H_
