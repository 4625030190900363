#include "src/common/env.h"

#include <strings.h>

#include <charconv>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "src/common/logging.h"

namespace asbase {

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  const std::string_view text(env);
  int64_t value = 0;
  // from_chars takes no '+' or whitespace and reports overflow, so a
  // complete parse with value >= 0 is exactly "a non-negative integer".
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size() || value < 0) {
    AS_LOG(kWarn) << name << "=\"" << text
                  << "\" is not a non-negative integer; using " << fallback;
    return fallback;
  }
  return value;
}

bool EnvBool(const char* name, bool fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  static constexpr std::pair<const char*, bool> kWords[] = {
      {"1", true},  {"on", true},   {"true", true},   {"yes", true},
      {"0", false}, {"off", false}, {"false", false}, {"no", false}};
  for (const auto& [word, value] : kWords) {
    if (strcasecmp(env, word) == 0) {
      return value;
    }
  }
  AS_LOG(kWarn) << name << "=\"" << env << "\" is not a boolean; using "
                << (fallback ? "true" : "false");
  return fallback;
}

}  // namespace asbase
