// Structured leveled logging on top of util/logging's threshold and
// stderr writer.
//
// Every record is dual-clock stamped (sim time from the caller, wall time
// from the system clock) and trace-correlated: the logger asks the tracer
// for the calling thread's innermost open span, so a warning emitted inside
// a GCA-offload request carries that request's trace_id and can be joined
// against /tracez output. Records land in a bounded ring buffer (recent()
// exposes them to the diagnostics endpoints) and are mirrored to stderr
// through util/logging's writer, which also owns the process-wide threshold
// — set_log_level() / --log-level control both paths with one knob.
//
// Thread-safety: the ring is guarded by its own mutex, level checks go
// through util/logging's atomic, and per-level counters live in the metrics
// registry — same discipline as the PR-2 metrics cells, so the parallel
// deployment study can log from every worker.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/logging.hpp"
#include "util/simtime.hpp"

namespace pmware::telemetry {

struct LogRecord {
  LogLevel level = LogLevel::Info;
  std::string component;
  std::string message;
  SimTime sim_time = 0;
  std::int64_t wall_us = 0;     ///< microseconds since the Unix epoch
  std::uint64_t trace_id = 0;   ///< 0 when no span was open on the thread
  std::size_t span_id = 0;      ///< meaningful only when trace_id != 0
};

/// Ring-buffered structured logger. The threshold is util/logging's global
/// level; records below it are dropped before any formatting cost.
class Logger {
 public:
  explicit Logger(std::size_t capacity = 1024) : capacity_(capacity) {}

  /// Records one entry (if `level` passes the threshold) and mirrors it to
  /// stderr via log_line unless echo is disabled.
  void write(LogLevel level, std::string_view component, SimTime sim_time,
             std::string message);

  /// Oldest-first copy of the retained records, taken under the lock.
  std::vector<LogRecord> recent() const;

  /// Records accepted since construction/reset (retained + overwritten).
  std::size_t total() const;

  std::size_t capacity() const { return capacity_; }

  /// Silences the stderr mirror (benches that own stdout); the ring still
  /// fills so diagnostics stay available.
  void set_echo(bool echo) { echo_ = echo; }

  void reset();

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<LogRecord> ring_;  ///< grows to capacity_, then wraps
  std::size_t next_ = 0;         ///< ring_ slot the next record lands in
  std::size_t total_ = 0;
  bool echo_ = true;
};

/// The process-wide logger, sibling of registry() and tracer().
Logger& logger();

/// Sim-time-stamped printf-style entry points — the project's one logging
/// API. Each record goes to the ring, is trace-correlated, and is mirrored
/// to stderr through util/logging's log_line.
#if defined(__GNUC__)
#define PMWARE_TLOG_PRINTF(a, b) __attribute__((format(printf, a, b)))
#else
#define PMWARE_TLOG_PRINTF(a, b)
#endif

PMWARE_TLOG_PRINTF(3, 4)
void slog_debug(const char* component, SimTime sim_time, const char* fmt, ...);
PMWARE_TLOG_PRINTF(3, 4)
void slog_info(const char* component, SimTime sim_time, const char* fmt, ...);
PMWARE_TLOG_PRINTF(3, 4)
void slog_warn(const char* component, SimTime sim_time, const char* fmt, ...);
PMWARE_TLOG_PRINTF(3, 4)
void slog_error(const char* component, SimTime sim_time, const char* fmt, ...);

#undef PMWARE_TLOG_PRINTF

/// "debug"/"info"/"warn"/"error"/"off" (case-insensitive) → level.
std::optional<LogLevel> parse_log_level(std::string_view name);

/// Applies a "--log-level LEVEL" argv flag to the global threshold; returns
/// false (with a stderr note) when the value does not parse. Benches and
/// examples call this after their default set_log_level.
bool apply_log_level_flag(int argc, char** argv);

}  // namespace pmware::telemetry
