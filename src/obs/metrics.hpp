// Metrics registry: named counters, gauges, and histograms backed by
// per-worker ("lane") atomic cells.
//
// Design constraints, in order:
//   1. Zero hot-path locks. Registration (name -> metric) takes a mutex, but
//      it happens once per run per metric; the handles returned are stable
//      for the registry's lifetime, and every update on them is one relaxed
//      atomic on a lane-private cache line.
//   2. No cross-worker contention. Each worker updates its own lane's cell
//      (64-byte aligned); readers aggregate across lanes. Writers never wait
//      on each other or on the sampler thread.
//   3. Free when off. The engine's workers accumulate into the plain local
//      counters they already keep and flush deltas into the registry only at
//      batch boundaries — and only when a registry is installed at all
//      (obs/hooks.hpp), so a disabled sink costs a predicted branch per
//      batch, not per state.
//
// Aggregation semantics:
//   Counter   — monotonic; total() sums the lanes.
//   Gauge     — one shared cell, last write wins (used for run-level facts
//               like the visited cap or the current frontier size, where any
//               recent writer's view is equally good).
//   Histogram — per-lane power-of-two buckets plus count/sum/max, merged on
//               read.
//
// snapshot() returns the aggregated view sorted by name, so two runs that
// did the same work produce byte-identical snapshots — the determinism tests
// rely on this.
#ifndef RCONS_OBS_METRICS_HPP
#define RCONS_OBS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rcons::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* metric_kind_name(MetricKind kind);

// Aggregated view of one metric at one instant.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  // Counter: total. Gauge: current value (signed, stored as int64 bits).
  // Histogram: observation count.
  std::uint64_t value = 0;
  // Histogram only:
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  std::int64_t gauge_value() const { return static_cast<std::int64_t>(value); }
};

// The full aggregated registry state, sorted by metric name.
using MetricsSnapshot = std::vector<MetricSample>;

// Finds a sample by name; nullptr when absent.
const MetricSample* find_sample(const MetricsSnapshot& snapshot,
                                std::string_view name);

namespace detail {
struct alignas(64) LaneCell {
  std::atomic<std::uint64_t> value{0};
};
}  // namespace detail

class Counter {
 public:
  explicit Counter(std::size_t lanes)
      : cells_(std::make_unique<detail::LaneCell[]>(lanes)), lanes_(lanes) {}

  void add(std::size_t lane, std::uint64_t delta) {
    cells_[lane % lanes_].value.fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < lanes_; ++i) {
      sum += cells_[i].value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void reset() {
    for (std::size_t i = 0; i < lanes_; ++i) {
      cells_[i].value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::unique_ptr<detail::LaneCell[]> cells_;
  std::size_t lanes_;
};

class Gauge {
 public:
  void set(std::int64_t value) {
    cell_.store(static_cast<std::uint64_t>(value), std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return static_cast<std::int64_t>(cell_.load(std::memory_order_relaxed));
  }
  void reset() { cell_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> cell_{0};
};

class Histogram {
 public:
  // Power-of-two buckets: bucket i counts values v with bit_width(v) == i
  // (bucket 0 is v == 0). 40 buckets cover every value this codebase can
  // plausibly record (batch sizes, probe lengths, microsecond durations).
  static constexpr std::size_t kBuckets = 40;

  explicit Histogram(std::size_t lanes)
      : lanes_(std::make_unique<Lane[]>(lanes)), lane_count_(lanes) {}

  void record(std::size_t lane_index, std::uint64_t value);

  std::uint64_t count() const;
  std::uint64_t sum() const;
  std::uint64_t max() const;
  // Merged bucket counts (size kBuckets).
  std::vector<std::uint64_t> buckets() const;
  void reset();

 private:
  struct alignas(64) Lane {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
  };

  std::unique_ptr<Lane[]> lanes_;
  std::size_t lane_count_;
};

class MetricsRegistry {
 public:
  // `lanes` bounds the worker ids that get contention-free cells; updates
  // from higher ids wrap (correct totals, possible false sharing). Lane 0 is
  // conventionally the coordinating thread, workers use 1 + worker id.
  static constexpr std::size_t kDefaultLanes = 64;

  explicit MetricsRegistry(std::size_t lanes = kDefaultLanes);

  std::size_t lanes() const { return lanes_; }

  // Get-or-create; the returned reference is stable for the registry's
  // lifetime. Creating takes the registration mutex, so hot paths should
  // resolve their handles once per run (see e.g. ObsCells in
  // engine/obs_cells.hpp).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Aggregated state of every registered metric, sorted by name.
  MetricsSnapshot snapshot() const;

  // Zeroes every metric whose name starts with `prefix` (all of them when
  // empty). Metrics stay registered — handles remain valid. Used between
  // checks sharing one registry.
  void reset(std::string_view prefix = {});

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  std::size_t lanes_;
  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace rcons::obs

#endif  // RCONS_OBS_METRICS_HPP
