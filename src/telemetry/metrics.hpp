// Telemetry metrics registry: the process-wide measurement substrate.
//
// Every layer of the middleware (net transport, sampling scheduler,
// inference engine, PMS, cloud instance, deployment study) records labeled
// counters, gauges, and histograms here instead of keeping ad-hoc stats
// structs. Exporters (telemetry/export.hpp) render the registry as
// Prometheus text — served by the cloud instance's GET /metrics — or as
// JSON for the benches' --json mode.
//
// Thread-safety: the deployment study simulates participants on a worker
// pool, so the registry is shared mutable state. Counter cells are striped
// relaxed atomics (a single-writer fast cell plus lazily allocated
// cache-line-padded overflow stripes, merged at read time), Gauge cells are
// single atomics, each HistogramMetric keeps per-thread shards (one
// uncontended mutex per shard, merged coherently at snapshot()), and the
// registry serializes family/series map lookups with a registry-wide
// mutex. Instrument references returned by counter()/gauge()/histogram()
// stay valid until reset() and may be used concurrently without further
// locking; hot paths pre-resolve them through the MetricHandle family
// below so steady-state recording never touches the registry lock.
// Exporters iterate under the registry lock via with_families().
// Iteration order stays deterministic (std::map keyed by family name,
// then by label set).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/stats.hpp"

namespace pmware::telemetry {

/// Sorted key/value labels identifying one series within a family,
/// e.g. {{"interface", "gsm"}}. The empty set is a valid (unlabeled) series.
using LabelSet = std::map<std::string, std::string>;

/// Thrown on kind mismatches (e.g. asking for a counter named like an
/// existing gauge family) and histogram re-declarations with new bounds.
class TelemetryError : public std::logic_error {
 public:
  explicit TelemetryError(const std::string& what) : std::logic_error(what) {}
};

/// Stable, small per-thread index used to spread shared instruments across
/// stripes. Assigned on first use, never reused within the process.
unsigned thread_stripe_id();

/// Number of overflow stripes shared instruments fan out across. Power of
/// two so the stripe pick is a mask, sized for the 8-worker study pool.
inline constexpr unsigned kMetricStripes = 8;

/// Monotonically increasing count. Prometheus convention: name ends in
/// "_total".
///
/// Striped for write scalability: the first thread to inc() claims the
/// inline fast cell (the overwhelmingly common case — per-instance series
/// are only ever written by the worker simulating that participant, so
/// they stay one plain atomic with no extra allocation). Threads other
/// than the owner fan out across kMetricStripes cache-line-padded overflow
/// cells, allocated lazily on the first cross-thread write, so the few
/// genuinely shared families (cloud route counters, study totals) never
/// bounce one cache line between 8 workers. Reads sum all cells; like the
/// old single-atomic counter, value() is monotonic but not a synchronized
/// point-in-time cut.
class Counter {
 public:
  Counter() = default;
  ~Counter() { delete[] stripes_.load(std::memory_order_acquire); }
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) {
    const unsigned tid = thread_stripe_id();
    std::uint32_t owner = owner_.load(std::memory_order_relaxed);
    if (owner == kUnowned &&
        owner_.compare_exchange_strong(owner, tid, std::memory_order_relaxed))
      owner = tid;
    if (owner == tid) {
      head_.fetch_add(n, std::memory_order_relaxed);
      return;
    }
    overflow_stripe(tid).fetch_add(n, std::memory_order_relaxed);
  }
  /// Batch increment for run-oriented hot loops: one atomic add covers a
  /// whole dispatched run of samples.
  void add(std::uint64_t n) { inc(n); }

  std::uint64_t value() const {
    std::uint64_t total = head_.load(std::memory_order_relaxed);
    if (const Stripe* s = stripes_.load(std::memory_order_acquire))
      for (unsigned i = 0; i < kMetricStripes; ++i)
        total += s[i].v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };
  static constexpr std::uint32_t kUnowned = ~std::uint32_t{0};

  std::atomic<std::uint64_t>& overflow_stripe(unsigned tid) {
    Stripe* s = stripes_.load(std::memory_order_acquire);
    if (s == nullptr) {
      auto* fresh = new Stripe[kMetricStripes];
      if (stripes_.compare_exchange_strong(s, fresh,
                                           std::memory_order_acq_rel))
        s = fresh;
      else
        delete[] fresh;  // another thread won the race
    }
    return s[tid & (kMetricStripes - 1)].v;
  }

  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint32_t> owner_{kUnowned};
  std::atomic<Stripe*> stripes_{nullptr};
};

/// Point-in-time value that can move both ways.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket distribution. Wraps util/stats.hpp: the Histogram supplies
/// the bucket layout (values outside [lo, hi) clamp into the edge buckets),
/// the RunningStats supply sum/mean/min/max for the exporters.
///
/// Sharded for write scalability, mirroring Counter: the first observing
/// thread claims the inline head shard; other threads fan out across
/// lazily allocated per-stripe shards. Each shard has its own mutex
/// guarding its buckets + stats together, so in steady state every
/// observe() takes an *uncontended* lock (one thread per shard) instead of
/// serializing all workers on one metric-wide mutex. snapshot() locks each
/// shard in turn and merges — every observe lands in exactly one shard
/// atomically, so the merged result can never report sum/count torn across
/// buckets (bucket total always equals stats count).
class HistogramMetric {
 public:
  /// Coherent merged copy of buckets + stats across all shards.
  struct Snapshot {
    Histogram buckets;
    RunningStats stats;
  };

  HistogramMetric(double lo, double hi, std::size_t buckets)
      : lo_(lo), hi_(hi), bucket_count_(buckets), head_(lo, hi, buckets) {}
  ~HistogramMetric() {
    for (auto& slot : overflow_) delete slot.load(std::memory_order_acquire);
  }
  HistogramMetric(const HistogramMetric&) = delete;
  HistogramMetric& operator=(const HistogramMetric&) = delete;

  void observe(double x) {
    Shard& shard = shard_for(thread_stripe_id());
    const std::scoped_lock lock(shard.mu);
    shard.hist.add(x);
    shard.stats.add(x);
  }

  Snapshot snapshot() const {
    Snapshot out{Histogram(lo_, hi_, bucket_count_), RunningStats{}};
    merge_shard(head_, out);
    for (const auto& slot : overflow_)
      if (const Shard* shard = slot.load(std::memory_order_acquire))
        merge_shard(*shard, out);
    return out;
  }

  /// Merged copies for single-threaded readers (tests, the stats views
  /// once workers have joined). These changed from references to values
  /// when the metric went sharded — there is no longer one Histogram to
  /// point at.
  Histogram buckets() const { return snapshot().buckets; }
  RunningStats stats() const { return snapshot().stats; }

  /// Bucket layout (immutable after construction, always lock-free).
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t bucket_count() const { return bucket_count_; }

 private:
  struct Shard {
    Shard(double lo, double hi, std::size_t buckets) : hist(lo, hi, buckets) {}
    mutable std::mutex mu;
    Histogram hist;
    RunningStats stats;
  };
  static constexpr std::uint32_t kUnowned = ~std::uint32_t{0};

  Shard& shard_for(unsigned tid) {
    std::uint32_t owner = owner_.load(std::memory_order_relaxed);
    if (owner == kUnowned &&
        owner_.compare_exchange_strong(owner, tid, std::memory_order_relaxed))
      owner = tid;
    if (owner == tid) return head_;
    auto& slot = overflow_[tid & (kMetricStripes - 1)];
    Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) {
      auto* fresh = new Shard(lo_, hi_, bucket_count_);
      if (slot.compare_exchange_strong(shard, fresh,
                                       std::memory_order_acq_rel))
        shard = fresh;
      else
        delete fresh;  // another thread won the race
    }
    return *shard;
  }

  static void merge_shard(const Shard& shard, Snapshot& out) {
    const std::scoped_lock lock(shard.mu);
    out.buckets.merge(shard.hist);
    out.stats.merge(shard.stats);
  }

  double lo_;
  double hi_;
  std::size_t bucket_count_;
  Shard head_;
  std::atomic<std::uint32_t> owner_{kUnowned};
  std::array<std::atomic<Shard*>, kMetricStripes> overflow_{};
};

enum class MetricKind { Counter, Gauge, Histogram };
const char* to_string(MetricKind kind);

/// All series sharing one metric name. Exactly one of the three maps is
/// populated, matching `kind`.
struct MetricFamily {
  MetricKind kind = MetricKind::Counter;
  std::string help;
  std::map<LabelSet, std::unique_ptr<Counter>> counters;
  std::map<LabelSet, std::unique_ptr<Gauge>> gauges;
  std::map<LabelSet, std::unique_ptr<HistogramMetric>> histograms;
};

class MetricsRegistry {
 public:
  /// Returns the counter series for (name, labels), creating family and
  /// series on first use. Throws TelemetryError if `name` already names a
  /// family of a different kind. References stay valid until reset().
  Counter& counter(const std::string& name, LabelSet labels = {},
                   const std::string& help = "");

  Gauge& gauge(const std::string& name, LabelSet labels = {},
               const std::string& help = "");

  /// Histogram bounds are a property of the family: the first declaration
  /// wins and later calls must repeat it (mismatch throws TelemetryError).
  HistogramMetric& histogram(const std::string& name, LabelSet labels,
                             double lo, double hi, std::size_t bucket_count,
                             const std::string& help = "");

  /// Read-side lookups for the thin stats views (ClientStats, PmsStats):
  /// null when the family or series does not exist (e.g. after reset()).
  const Counter* find_counter(const std::string& name,
                              const LabelSet& labels) const;
  const Gauge* find_gauge(const std::string& name, const LabelSet& labels) const;
  const HistogramMetric* find_histogram(const std::string& name,
                                        const LabelSet& labels) const;
  /// Value of a counter series, 0 when absent.
  std::uint64_t counter_value(const std::string& name,
                              const LabelSet& labels = {}) const;

  /// Sum of every series in a counter family (0 when absent) — the fleet
  /// aggregate across instance labels.
  std::uint64_t family_total(const std::string& name) const;

  /// Runs `fn(families)` with the registry lock held so exporters see a
  /// coherent family/series table even while writers register new series.
  /// `fn` must not call back into the registry (non-reentrant lock).
  template <typename Fn>
  auto with_families(Fn&& fn) const {
    const std::scoped_lock lock(mu_);
    return fn(families_);
  }

  /// Unsynchronized view for single-threaded callers; concurrent-safe
  /// readers go through with_families().
  const std::map<std::string, MetricFamily>& families() const {
    return families_;
  }
  std::size_t family_count() const {
    const std::scoped_lock lock(mu_);
    return families_.size();
  }

  /// Drops every family and series. Instrument references obtained earlier
  /// dangle afterwards — callers must re-fetch. Hot paths cache handles via
  /// the MetricHandle family below, which revalidates against reset_epoch()
  /// so a reset invalidates every cached handle instead of leaving it
  /// dangling.
  void reset() {
    const std::scoped_lock lock(mu_);
    families_.clear();
    reset_epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Bumped on every reset(); cached instrument handles compare it to
  /// decide whether a re-lookup is needed (one relaxed load per use).
  std::uint64_t reset_epoch() const {
    return reset_epoch_.load(std::memory_order_relaxed);
  }

  /// Total counter()/gauge()/histogram() lookups served. The sensing hot
  /// loop must not take the registry lock per sample; the scheduler
  /// microbench asserts this stays flat across a dispatch run.
  std::uint64_t lookup_count() const {
    return lookups_.load(std::memory_order_relaxed);
  }

  /// Fresh id for per-instance labels ("c3", "pms7"); never reused, not
  /// affected by reset() so views of dead instances stay distinct. Inside
  /// an InstanceLabelScope the label is "<prefix>~<slot>" instead — stable
  /// per worker slot, so a streaming study reuses O(threads) series rather
  /// than growing the registry by O(participants).
  std::string next_instance_label(const std::string& prefix);

  /// Total series across every family — the label-cardinality gauge the
  /// streaming runner's O(N)-scan regression test watches.
  std::size_t series_count() const;

 private:
  /// Caller must hold mu_.
  MetricFamily& family_of(const std::string& name, MetricKind kind,
                          const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, MetricFamily> families_;
  std::atomic<std::uint64_t> next_instance_{0};
  std::atomic<std::uint64_t> reset_epoch_{0};
  std::atomic<std::uint64_t> lookups_{0};
};

/// The process-wide registry every middleware layer records into.
MetricsRegistry& registry();

/// RAII thread-local override for next_instance_label(): while a scope is
/// alive on a thread, every instance label minted on that thread is
/// "<prefix>~<slot>" instead of a fresh "<prefix><n>". The streaming study
/// runner opens one scope per worker slot in aggregate mode, so the
/// thousands of short-lived PMS/client/device instances of a population-
/// scale run share O(threads) registry series (family totals stay exact —
/// counters only accumulate — but per-instance stats views are meaningless
/// while a scope is active). Scopes nest; the innermost wins.
class InstanceLabelScope {
 public:
  explicit InstanceLabelScope(std::string slot);
  ~InstanceLabelScope();

  InstanceLabelScope(const InstanceLabelScope&) = delete;
  InstanceLabelScope& operator=(const InstanceLabelScope&) = delete;

  /// The innermost slot name active on this thread, or null.
  static const std::string* current();

 private:
  std::string slot_;
  InstanceLabelScope* prev_;
};

/// Pre-resolved instrument handles for hot loops — the MetricHandle
/// family. Each resolves its (name, labels) series once and reuses the
/// reference: the per-use cost is one relaxed epoch load and a compare, no
/// map lookups, no string building, no registry lock. Safe across
/// registry().reset(): the epoch mismatch triggers a re-resolve instead of
/// writing through a dangling pointer. `Derived` supplies resolve(), which
/// performs the one registry lookup.
template <typename Instrument, typename Derived>
class MetricHandle {
 public:
  MetricHandle(std::string name, LabelSet labels, std::string help)
      : name_(std::move(name)),
        labels_(std::move(labels)),
        help_(std::move(help)) {}

  Instrument& get() {
    auto& reg = registry();
    const std::uint64_t epoch = reg.reset_epoch();
    if (cached_ == nullptr || epoch_ != epoch) {
      cached_ = &static_cast<Derived*>(this)->resolve(reg);
      epoch_ = epoch;
    }
    return *cached_;
  }

 protected:
  std::string name_;
  LabelSet labels_;
  std::string help_;

 private:
  Instrument* cached_ = nullptr;
  std::uint64_t epoch_ = ~std::uint64_t{0};
};

class CounterHandle : public MetricHandle<Counter, CounterHandle> {
 public:
  using MetricHandle::MetricHandle;
  void inc(std::uint64_t n = 1) { get().inc(n); }
  Counter& resolve(MetricsRegistry& reg) {
    return reg.counter(name_, labels_, help_);
  }
};

class GaugeHandle : public MetricHandle<Gauge, GaugeHandle> {
 public:
  using MetricHandle::MetricHandle;
  void set(double v) { get().set(v); }
  Gauge& resolve(MetricsRegistry& reg) {
    return reg.gauge(name_, labels_, help_);
  }
};

class HistogramHandle : public MetricHandle<HistogramMetric, HistogramHandle> {
 public:
  /// Bounds travel with the handle — a re-resolve after reset() must
  /// re-declare the family with the same layout.
  HistogramHandle(std::string name, LabelSet labels, double lo, double hi,
                  std::size_t bucket_count, std::string help)
      : MetricHandle(std::move(name), std::move(labels), std::move(help)),
        lo_(lo),
        hi_(hi),
        bucket_count_(bucket_count) {}
  void observe(double x) { get().observe(x); }
  HistogramMetric& resolve(MetricsRegistry& reg) {
    return reg.histogram(name_, labels_, lo_, hi_, bucket_count_, help_);
  }

 private:
  double lo_;
  double hi_;
  std::size_t bucket_count_;
};

}  // namespace pmware::telemetry
