// Span-based tracing with Chrome trace-event JSON export.
//
// A Tracer owns one event buffer per "lane" (lane 0 = the coordinating
// thread, lane 1 + worker id = engine workers). Lanes are single-writer:
// the owning thread appends without locks, and export happens after the
// workers have joined, so the whole structure needs no synchronization
// beyond thread start/join ordering. Each lane is bounded
// (`max_events_per_lane`); past the cap events are counted as dropped
// instead of growing without bound on huge explorations.
//
// Spans are RAII (`obs::Span`): construction samples the clock, destruction
// records one Chrome "complete" event (ph:"X" with ts + dur). Because spans
// close in strict reverse order of opening on each lane, the exported events
// per lane are properly nested — Perfetto renders them as a flame graph, and
// validate_chrome_trace() checks the invariant mechanically.
//
// Export is the Chrome trace-event JSON object format
// ({"traceEvents":[...]}), loadable in Perfetto (https://ui.perfetto.dev)
// or chrome://tracing. Lane names are emitted as thread_name metadata.
#ifndef RCONS_OBS_TRACE_HPP
#define RCONS_OBS_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rcons::obs {

class Tracer {
 public:
  static constexpr std::size_t kDefaultLanes = 64;
  static constexpr std::size_t kDefaultMaxEventsPerLane = 1 << 16;

  explicit Tracer(std::size_t lanes = kDefaultLanes,
                  std::size_t max_events_per_lane = kDefaultMaxEventsPerLane);

  std::size_t lanes() const { return lanes_.size(); }

  // Lane index for an engine worker id (1 + id, wrapped into range; lane 0
  // stays reserved for the coordinating thread).
  std::size_t worker_lane(int worker_id) const {
    return 1 + static_cast<std::size_t>(worker_id) % (lanes_.size() - 1);
  }

  // Microseconds since the tracer's construction (steady clock).
  std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  // Records one complete span on `lane`. Only the lane-owning thread may
  // call this (single-writer contract).
  void complete(std::size_t lane, std::string name, std::uint64_t begin_us,
                std::uint64_t end_us);

  // Records an instant event (ph:"i") on `lane` — a zero-duration marker.
  void instant(std::size_t lane, std::string name);

  // Display name for the lane in trace viewers (thread_name metadata).
  void set_lane_name(std::size_t lane, std::string name);

  std::uint64_t events_recorded() const;
  std::uint64_t events_dropped() const;

  // Writes the whole trace as Chrome trace-event JSON. Call only after every
  // lane-writing thread has finished (or joined).
  void write_chrome_trace(std::ostream& out) const;

 private:
  struct Event {
    std::string name;
    std::uint64_t ts_us = 0;
    std::uint64_t dur_us = 0;
    char ph = 'X';
  };

  struct alignas(64) Lane {
    std::vector<Event> events;
    std::string name;
    std::uint64_t dropped = 0;
  };

  bool lane_full(Lane& lane);

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Lane> lanes_;
  std::size_t max_events_per_lane_;
};

// RAII scoped span; a null tracer makes every operation a no-op.
class Span {
 public:
  Span(Tracer* tracer, std::size_t lane, std::string name)
      : tracer_(tracer), lane_(lane), name_(std::move(name)) {
    if (tracer_ != nullptr) begin_us_ = tracer_->now_us();
  }
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span early (idempotent).
  void close() {
    if (tracer_ == nullptr) return;
    tracer_->complete(lane_, std::move(name_), begin_us_, tracer_->now_us());
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  std::size_t lane_;
  std::string name_;
  std::uint64_t begin_us_ = 0;
};

// Parses a Chrome trace-event JSON document and checks its structure: valid
// JSON, a traceEvents array of objects each carrying name/ph/pid/tid/ts (and
// dur for ph:"X"), at least one non-metadata event, and — per (pid, tid) —
// properly nested complete events (every pair of spans is disjoint or
// contained, never partially overlapping). Returns false and fills `error`
// (when non-null) on the first problem found. Used by the trace round-trip
// test and by check_cli to verify its own --trace-out output.
bool validate_chrome_trace(std::istream& in, std::string* error);

}  // namespace rcons::obs

#endif  // RCONS_OBS_TRACE_HPP
