// Structured logging for the serving layer.
//
// Every operational line cafe_serve (and src/server/) emits goes
// through Log(): one line per call, with a UTC timestamp, a severity
// letter, the emitting thread's dense id (`tid=`, joinable against
// span timelines), and — when the message concerns one request — its
// trace id, so a log line can be joined against the flight recorder,
// the slow log, and the client's own view of the same request. The
// `cafe-no-raw-fprintf` repo lint rule (tools/lint_cafe.py) enforces
// that the serving layer never bypasses this shim.
//
// Log() is thread-safe (one mutex-guarded write per line, so
// concurrent threads never interleave fragments) and cheap enough for
// per-connection events, but it is not for hot paths: per-request
// facts belong in the MetricsRegistry and the FlightRecorder, not in
// the log.

#ifndef CAFE_OBS_LOG_H_
#define CAFE_OBS_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace cafe::obs {

enum class LogSeverity : int {
  kInfo = 0,
  kWarning = 1,
  kError = 2,
};

/// One formatted log line (no trailing newline):
///   2026-08-07T12:34:56.789Z I tid=3 trace=00000000deadbeef message
/// `tid=` is the emitting thread's obs::DenseThreadId() — the same id
/// span timelines carry, so a log line can be joined against the
/// /tracez view of its request. `trace=` is omitted when trace_id is 0
/// (no request in scope); unix_micros is microseconds since the Unix
/// epoch, UTC.
std::string FormatLogLine(LogSeverity severity, std::string_view message,
                          uint64_t trace_id, int64_t unix_micros,
                          uint32_t tid);

/// Writes one line to stderr, stamped with the current wall-clock
/// time. Thread-safe; lines never interleave.
void Log(LogSeverity severity, std::string_view message,
         uint64_t trace_id = 0);

inline void LogInfo(std::string_view message, uint64_t trace_id = 0) {
  Log(LogSeverity::kInfo, message, trace_id);
}
inline void LogWarning(std::string_view message, uint64_t trace_id = 0) {
  Log(LogSeverity::kWarning, message, trace_id);
}
inline void LogError(std::string_view message, uint64_t trace_id = 0) {
  Log(LogSeverity::kError, message, trace_id);
}

}  // namespace cafe::obs

#endif  // CAFE_OBS_LOG_H_
