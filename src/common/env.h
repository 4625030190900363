// Environment-variable knobs (`ALLOY_*`). Unset or empty means the
// default; a value that does not parse logs a warning naming the knob and
// also means the default, so a typo never half-applies (`2x` is not 2).

#ifndef SRC_COMMON_ENV_H_
#define SRC_COMMON_ENV_H_

#include <cstdint>

namespace asbase {

// A non-negative decimal integer (digits only, no sign, no whitespace, fits
// in int64). Anything else — `2x`, `banana`, `-3`, a 20-digit value — warns
// and yields `fallback`.
int64_t EnvInt64(const char* name, int64_t fallback);

// A boolean: 1/on/true/yes or 0/off/false/no, case-insensitive. Anything
// else warns and yields `fallback`.
bool EnvBool(const char* name, bool fallback);

}  // namespace asbase

#endif  // SRC_COMMON_ENV_H_
