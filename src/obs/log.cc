#include "obs/log.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>

#include "obs/span.h"
#include "util/mutex.h"

namespace cafe::obs {
namespace {

Mutex g_log_mu;

char SeverityLetter(LogSeverity severity) {
  switch (severity) {
    case LogSeverity::kInfo:
      return 'I';
    case LogSeverity::kWarning:
      return 'W';
    case LogSeverity::kError:
      return 'E';
  }
  return '?';
}

}  // namespace

std::string FormatLogLine(LogSeverity severity, std::string_view message,
                          uint64_t trace_id, int64_t unix_micros,
                          uint32_t tid) {
  const std::time_t secs = static_cast<std::time_t>(unix_micros / 1000000);
  const int millis = static_cast<int>((unix_micros % 1000000) / 1000);
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char stamp[96];
  std::snprintf(stamp, sizeof(stamp),
                "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ %c tid=%u ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, millis, SeverityLetter(severity),
                tid);
  std::string line = stamp;
  if (trace_id != 0) {
    char trace[32];
    std::snprintf(trace, sizeof(trace), "trace=%016" PRIx64 " ", trace_id);
    line += trace;
  }
  line.append(message.data(), message.size());
  return line;
}

void Log(LogSeverity severity, std::string_view message,
         uint64_t trace_id) {
  const int64_t now_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const std::string line =
      FormatLogLine(severity, message, trace_id, now_micros,
                    DenseThreadId());
  MutexLock lock(&g_log_mu);
  // The stderr write *is* the critical section: g_log_mu exists to
  // keep concurrent log lines from interleaving in the stream, so the
  // I/O must happen under it. Nothing else is ever locked here, and
  // every caller-side lock is screened by the same pass.
  // NOLINTNEXTLINE(astcheck-lock-scope)
  std::fprintf(stderr, "%s\n", line.c_str());
  std::fflush(stderr);  // NOLINT(astcheck-lock-scope) — same line batch
}

}  // namespace cafe::obs
