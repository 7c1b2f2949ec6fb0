// Span recorder for the benchmark's traced pass. Spans are opened and
// closed by the benchmark's own code around its calls into each layer
// (participant, boot, day, proxied cloud request, save, restore; replayed
// send -> cloud handle), so the middleware itself is measured unmodified.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pmware::perfbench {

struct SpanRecord {
  std::string name;
  std::string layer;  ///< module the span's self time is charged to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t parent = kNoParent;
  std::uint64_t trace_id = 0;  ///< one per participant or replayed request

  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
};

/// Single-threaded stack of open spans; records stay in memory until the
/// benchmark reads them after the pass.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open one. A root span starts a new
  /// trace id.
  std::size_t open(std::string name, std::string layer);
  void close(std::size_t index);

  const std::vector<SpanRecord>& records() const { return records_; }
  /// Self time per layer in ns: each span's duration minus the part its
  /// children cover.
  std::map<std::string, double> self_ns_by_layer() const;
  /// Sum of root span durations in ns.
  double root_ns() const;

 private:
  std::vector<SpanRecord> records_;
  std::vector<std::size_t> open_;
  std::uint64_t next_trace_id_ = 1;
};

/// RAII span; a null recorder makes it a no-op, so untraced passes pay one
/// branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::string layer)
      : recorder_(recorder),
        index_(recorder ? recorder->open(std::move(name), std::move(layer))
                        : 0) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

/// Monotonic nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace pmware::perfbench
