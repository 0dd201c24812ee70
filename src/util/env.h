// Filesystem and environment helpers used by the on-disk formats and the
// benchmark harnesses.

#ifndef CAFE_UTIL_ENV_H_
#define CAFE_UTIL_ENV_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace cafe {

/// Reads an entire file into `*out`.
[[nodiscard]] Status ReadFileToString(const std::string& path, std::string* out);

/// Atomically-ish writes `data` to `path` (write then rename is overkill
/// here; this truncates and writes).
[[nodiscard]] Status WriteStringToFile(const std::string& path, const std::string& data);

/// Removes a file; missing files are not an error.
[[nodiscard]] Status RemoveFile(const std::string& path);

/// Integer environment variable with a default (used by the benches so the
/// experiment scale can be adjusted without recompiling).
int64_t GetEnvInt(const char* name, int64_t default_value);

/// Returns a writable temporary directory for tests/benches.
std::string TempDir();

}  // namespace cafe

#endif  // CAFE_UTIL_ENV_H_
