// perfbench — the measuring program behind perfbench/run.py.
//
// One invocation does one job for one workload and prints one JSON object
// on stdout (numbers with 17 significant digits). run.py starts a fresh
// process per repetition, so each repetition's peak RSS (VmHWM) is its own
// and never inherits an earlier repetition's high-water mark.
//
//   perfbench setup  <workload> --threads T    median of 25 timed set-ups
//   perfbench rep    <workload> --seed N --threads T
//   perfbench traced <workload> --seed N --threads T --trace-out FILE
//
// Workloads (see perfbench/README.md for why each was chosen):
//   explore-plain      Figure 2 team consensus on Sn(5), n=5, independent
//                      crashes, crash budget 2, no symmetry reduction
//   explore-symmetric  the same on Sn(7), n=7, with symmetry reduction
//   hierarchy-grid     find_discerning_witness / find_recording_witness on
//                      every (make_zoo(5) type, n = 2..6) cell
//
// `setup` times the workload's set-up alone. `rep` calls only the public
// entry points users call: check::check() with the default Strategy::kAuto,
// and the hierarchy witness finders. It times the verdict and (for the grid)
// every predicate call, and checks every answer against the hand-pinned
// expectations below.
//
// `traced` adds the per-layer view. For the explore workloads it runs the
// kAuto check again with an obs::Tracer and MetricsRegistry attached and
// writes the Chrome trace to FILE (validated with obs::validate_chrome_trace;
// run.py sums its spans); runs kParallelBFS at t=1 and t=T; and replays the
// exploration single-threaded through the engine's public expansion and
// node-store calls with a steady-clock stamp between phases. For the grid it
// times each predicate by outcome and n, and re-drives the negative cells'
// assignment enumeration through check_*_assignment. No tracing is added
// inside src/: every span and timer here wraps a call from this file.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "check/check.hpp"
#include "engine/expand.hpp"
#include "engine/node_store.hpp"
#include "hierarchy/assignment.hpp"
#include "hierarchy/discerning.hpp"
#include "hierarchy/recording.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rc/team_consensus.hpp"
#include "typesys/transition_cache.hpp"
#include "typesys/zoo.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace rcons;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double elapsed(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Reads one "<field>: <n> kB" line of /proc/self/status, in bytes.
std::uint64_t proc_status_bytes(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10) * 1024;
    }
  }
  return 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// ---------------------------------------------------------------------------
// Hand-pinned expectations. Never derived from the code under test.

struct ExploreWorkload {
  const char* name;
  const char* type;
  int n;
  int crash_budget;
  bool symmetry;
  std::uint64_t visited;      // distinct states of the complete clean check
  std::uint64_t transitions;  // edges of the unreduced graph
};

// Counts measured once with --strategy=bfs and pinned; a complete run's
// visited/transition counts are scheduling-independent.
constexpr ExploreWorkload kExplorePlain{"explore-plain", "Sn(5)", 5, 2, false,
                                        1'058'114, 7'138'225};
constexpr ExploreWorkload kExploreSymmetric{"explore-symmetric", "Sn(7)", 7, 2, true,
                                            1'364'348, 13'055'352};

constexpr int kUnbounded = -1;  // "through every n the grid checks"

// Largest n for which each zoo type is n-discerning / n-recording, from the
// literature and the paper (1 = not even 2-*). Written out by hand from the
// sources named in each row.
struct PinnedLevels {
  const char* type;
  int discerning;
  int recording;
  const char* source;
};

constexpr PinnedLevels kPinnedLevels[] = {
    {"register", 1, 1, "Herlihy 1991: cons(register) = 1"},
    {"counter", 1, 1, "commutative updates, ack responses"},
    {"max-register", 1, 1, "commutative updates, ack responses"},
    {"test-and-set", 2, 1, "Herlihy 1991: cons(TAS) = 2; state forgets the winner"},
    {"fetch-and-increment", 2, 1, "Herlihy 1991: cons(F&I) = 2; state is a count"},
    {"swap", 2, 1, "Herlihy 1991: cons(swap) = 2; last write wins"},
    {"compare-and-swap", kUnbounded, kUnbounded, "Herlihy 1991: cons(CAS) = inf"},
    {"sticky-bit", kUnbounded, kUnbounded, "Plotkin: sticky bit, cons = inf"},
    {"consensus-object", kUnbounded, kUnbounded, "consensus object, cons = inf"},
    {"stack", kUnbounded, kUnbounded, "push order is recorded in the state"},
    {"readable-stack", kUnbounded, kUnbounded, "push order is recorded in the state"},
    {"queue", kUnbounded, kUnbounded, "enqueue order is recorded in the state"},
    {"readable-queue", kUnbounded, kUnbounded, "enqueue order is recorded"},
    {"Tn(5)", 5, 3, "paper Prop. 19 and Thm 16: 5-discerning, 3-recording"},
    {"Sn(5)", 5, 5, "paper Prop. 21: 5-recording, not 6-discerning"},
};

constexpr int kGridMinN = 2;
constexpr int kGridMaxN = 6;
constexpr int kGridFamilyN = 5;

const PinnedLevels* pinned_levels(const std::string& type) {
  for (const PinnedLevels& row : kPinnedLevels) {
    if (type == row.type) return &row;
  }
  return nullptr;
}

bool expected_answer(const PinnedLevels& row, int n, bool recording) {
  const int level = recording ? row.recording : row.discerning;
  return level == kUnbounded || n <= level;
}

// ---------------------------------------------------------------------------
// Output: one flat JSON object, every number with 17 significant digits.

class Result {
 public:
  void set(const std::string& key, double value) { numbers_[key] = value; }
  void set_text(const std::string& key, const std::string& value) { texts_[key] = value; }
  void add(const std::string& key, double value) { numbers_[key] += value; }

  void print(std::ostream& out) const {
    out << std::setprecision(17);
    util::JsonWriter json(out);
    json.begin_object();
    for (const auto& [key, value] : texts_) json.key_value(key, value);
    for (const auto& [key, value] : numbers_) json.key_value(key, value);
    json.end_object();
    out << '\n';
  }

 private:
  std::map<std::string, double> numbers_;
  std::map<std::string, std::string> texts_;
};

void record_context(Result& result, const std::string& workload, std::uint64_t seed,
                    int threads, const std::string& mode) {
  result.set_text("workload", workload);
  result.set_text("mode", mode);
  result.set_text("compiler", PERFBENCH_COMPILER);
  result.set_text("build_type", PERFBENCH_BUILD_TYPE);
  result.set("seed", static_cast<double>(seed));
  result.set("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  result.set("threads", threads);
}

// ---------------------------------------------------------------------------
// Explore workloads.

constexpr typesys::Value kInputA = 101;
constexpr typesys::Value kInputB = 202;

// Owns the zoo type for as long as the built system runs: the team-consensus
// plan's TransitionCache refers to the type without owning it.
struct ExploreSetup {
  std::unique_ptr<typesys::ObjectType> type;
  check::CheckRequest request;
};

ExploreSetup build_explore(const ExploreWorkload& w, int threads, check::Strategy strategy,
                           double* rc_build_s = nullptr) {
  ExploreSetup setup;
  setup.type = typesys::make_type(w.type);
  const auto start = Clock::now();
  rc::TeamConsensusSystem built =
      rc::make_team_consensus_system(*setup.type, w.n, kInputA, kInputB);
  if (rc_build_s != nullptr) *rc_build_s = seconds_since(start);
  check::CheckRequest& request = setup.request;
  request.system.memory = std::move(built.memory);
  request.system.processes = std::move(built.processes);
  request.system.properties.valid_outputs = {kInputA, kInputB};
  if (w.symmetry) request.system.symmetry_classes = std::move(built.symmetry_classes);
  request.budget.crash_model = check::CrashModel::kIndependent;
  request.budget.crash_budget = w.crash_budget;
  request.strategy = strategy;
  request.num_threads = threads;
  return setup;
}

std::uint64_t metric(const obs::MetricsSnapshot& snapshot, const char* name) {
  const obs::MetricSample* sample = obs::find_sample(snapshot, name);
  return sample == nullptr ? 0 : static_cast<std::uint64_t>(sample->value);
}

// Checks one complete explore report against the pinned answers; returns the
// number of mismatches (0 or 1) and says why on stderr.
int explore_errors(const ExploreWorkload& w, const check::CheckReport& report) {
  std::string why;
  const sim::ExplorerStats& s = report.stats;
  if (!report.clean) why += " verdict is not clean;";
  if (!report.complete) why += " check did not complete;";
  if (s.visited != w.visited) why += " visited " + std::to_string(s.visited) + ";";
  if (s.transitions != w.transitions) {
    why += " transitions " + std::to_string(s.transitions) + ";";
  }
  // The duplicates/orbit-skip split depends on scheduling; the sum does not.
  const std::uint64_t dup = metric(report.metrics, "engine.duplicates");
  const std::uint64_t viol = metric(report.metrics, "engine.violation_edges");
  if (dup + s.orbit_skipped + viol != s.transitions - s.visited) {
    why += " duplicates + orbit_skipped + violation_edges != transitions - visited;";
  }
  if (why.empty()) return 0;
  std::cerr << "perfbench: " << w.name << " (" << check::strategy_name(report.strategy)
            << "):" << why << "\n";
  return 1;
}

// Set-ups timed per `setup` process; the process reports their median.
constexpr int kSetupRepeats = 25;

void setup_explore(const ExploreWorkload& w, int threads, Result& result) {
  std::vector<double> setup_times;
  std::vector<double> build_times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    double rc_s = 0.0;
    const auto start = Clock::now();
    const ExploreSetup setup = build_explore(w, threads, check::Strategy::kAuto, &rc_s);
    setup_times.push_back(seconds_since(start));
    build_times.push_back(rc_s);
  }
  result.set("setup_s", median(setup_times));
  result.set("rc.build_s", median(build_times));
}

void rep_explore(const ExploreWorkload& w, int threads, Result& result) {
  ExploreSetup setup = build_explore(w, threads, check::Strategy::kAuto);
  obs::MetricsRegistry registry;
  setup.request.obs.metrics = &registry;

  const std::uint64_t rss_before = proc_status_bytes("VmRSS");
  const check::CheckReport report = check::check(std::move(setup.request));
  const std::uint64_t hwm = proc_status_bytes("VmHWM");

  const auto visited = static_cast<double>(report.stats.visited);
  result.set("verdict_s", report.seconds);
  result.set("slowest_predicate_s", report.seconds);
  result.set("states_per_s", visited / report.seconds);
  result.set("peak_rss_mb", static_cast<double>(hwm) / (1024.0 * 1024.0));
  result.set("rss_bytes_per_state", static_cast<double>(hwm - rss_before) / visited);
  result.set("verdict_errors", explore_errors(w, report));
  result.set("attempted", 1);
  result.set("visited", visited);
  result.set("transitions", static_cast<double>(report.stats.transitions));
  result.set("orbit_skipped", static_cast<double>(report.stats.orbit_skipped));
  result.set("duplicates", static_cast<double>(metric(report.metrics, "engine.duplicates")));
  result.set("probe_visited",
             static_cast<double>(metric(report.metrics, "check.probe_visited")));
  result.set("store_value_bytes", static_cast<double>(report.stats.store.value_bytes));
  result.set("rss_growth_bytes", static_cast<double>(hwm - rss_before));
  result.set("threads_used", report.threads_used);
  result.set_text("strategy_used", check::strategy_name(report.strategy));
}

// Per-phase totals of the single-threaded replay, in steady-clock ns.
struct ReplayPhases {
  std::uint64_t decode = 0;     // NodeCodec::decode + restore
  std::uint64_t enumerate = 0;  // orbit_skip_mask + enumerate_events
  std::uint64_t step = 0;       // apply_event
  std::uint64_t encode = 0;     // encode_successor / encode (+ canonicalize)
  // Identity-codec decode and encode of the same records (symmetric only):
  // the encode difference is the canonicalizer's share of `encode`.
  std::uint64_t reference_decode = 0;
  std::uint64_t reference_encode = 0;
  std::uint64_t intern_hit = 0;
  std::uint64_t intern_miss = 0;

  std::uint64_t total() const {
    return decode + enumerate + step + encode + reference_decode + reference_encode +
           intern_hit + intern_miss;
  }
};

struct ReplayCounts {
  std::uint64_t visited = 0;  // like ExplorerStats::visited, the root excluded
  std::uint64_t transitions = 0;
  std::uint64_t orbit_skipped = 0;
  std::uint64_t violation_edges = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

// Breadth-first exhaustive exploration through the engine's public expansion
// and node-store calls, in the engine worker's order of operations, with a
// steady-clock stamp at every phase boundary (each stamp closes one phase and
// opens the next, so the phases tile the loop). The store is laid out like a
// t=1 kParallelBFS run: one shard, no presizing, one arena.
ReplayCounts phase_replay(const check::CheckRequest& request, Result& result) {
  sim::ExplorerConfig config;
  static_cast<check::Budget&>(config) = request.budget;
  config.properties = request.system.properties;
  config.symmetry_classes = request.system.symmetry_classes;

  engine::NodeCodec codec(config.symmetry_classes);
  engine::NodeCodec identity;  // canonicalize cost = codec encode - identity encode
  const bool symmetric = codec.canonicalizing();
  engine::Node node =
      engine::make_root(request.system.memory, request.system.processes, config.properties);
  engine::Node identity_node = node;
  engine::NodeStore store(0, 0, 1);
  engine::CasTable::OpStats ops;

  struct Item {
    const typesys::Value* record;
    std::uint32_t length;
  };
  std::vector<Item> frontier;
  std::vector<engine::Event> events;
  std::vector<typesys::Value> record;
  std::vector<typesys::Value> identity_record;
  std::vector<std::uint8_t> orbit_skip;
  ReplayPhases ph;
  ReplayCounts c;

  const auto wall_start = Clock::now();
  {
    const engine::NodeCodec::Encoded root = codec.encode(node, record);
    const engine::NodeStore::Intern interned = store.intern(root.fingerprint, record, 0);
    frontier.push_back(Item{interned.record, interned.length});
  }
  auto ns = [](Clock::time_point a, Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };
  auto last = Clock::now();
  // Closes the current phase into `slot` and opens the next one.
  auto lap = [&](std::uint64_t& slot) {
    const auto now = Clock::now();
    slot += ns(last, now);
    last = now;
  };
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const Item item = frontier[head];
    lap(ph.intern_miss);  // frontier bookkeeping rides with the last intern
    codec.decode(item.record, item.length, node);
    lap(ph.decode);
    const std::uint64_t orbit_before = c.orbit_skipped;
    const int orbit_count = symmetric ? codec.orbit_skip_mask(item.record, orbit_skip) : 0;
    engine::enumerate_events(node, config, events, orbit_count > 0 ? &orbit_skip : nullptr,
                             &c.orbit_skipped);
    c.transitions += c.orbit_skipped - orbit_before;
    lap(ph.enumerate);
    if (symmetric) {
      identity.decode(item.record, item.length, identity_node);
      lap(ph.reference_decode);
    }
    int dirty = engine::NodeCodec::kDirtyNone;
    for (const engine::Event& event : events) {
      c.transitions += 1;
      if (dirty != engine::NodeCodec::kDirtyNone) {
        codec.restore(item.record, item.length, node, dirty);
        lap(ph.decode);
      }
      const bool crash_all = event.kind == engine::Event::Kind::kCrashAll;
      dirty = crash_all ? engine::NodeCodec::kDirtyAll : event.process;
      const bool broken = engine::apply_event(node, event, config).has_value();
      lap(ph.step);
      if (broken) {
        c.violation_edges += 1;
        continue;
      }
      const engine::NodeCodec::Encoded encoded =
          crash_all ? codec.encode(node, record)
                    : codec.encode_successor(item.record, item.length, node,
                                             event.process, record);
      lap(ph.encode);
      if (symmetric) {
        if (crash_all) {
          identity.encode(node, identity_record);
        } else {
          identity.encode_successor(item.record, item.length, node, event.process,
                                    identity_record);
        }
        lap(ph.reference_encode);
      }
      const engine::NodeStore::Intern interned =
          store.intern(encoded.fingerprint, record, 0, &ops);
      if (interned.inserted) {
        c.misses += 1;
        c.visited += 1;
        frontier.push_back(Item{interned.record, interned.length});
        lap(ph.intern_miss);
      } else {
        c.hits += 1;
        lap(ph.intern_hit);
      }
    }
  }
  lap(ph.intern_miss);
  const double wall_s = seconds_since(wall_start);

  const auto per = [](std::uint64_t total, std::uint64_t count) {
    return count == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(count);
  };
  const auto interns = c.hits + c.misses;
  result.set("replay.visited", static_cast<double>(c.visited));
  result.set("replay.transitions", static_cast<double>(c.transitions));
  result.set("replay.violation_edges", static_cast<double>(c.violation_edges));
  result.set("replay.orbit_skipped", static_cast<double>(c.orbit_skipped));
  result.set("engine.expand.step_ns", per(ph.step, c.transitions));
  result.set("engine.expand.enumerate_ns", per(ph.enumerate, c.transitions));
  result.set("engine.node_store.encode_ns", per(ph.encode, c.transitions));
  result.set("engine.node_store.canonicalize_ns",
             symmetric ? per(ph.encode, c.transitions) - per(ph.reference_encode, c.transitions)
                       : 0.0);
  result.set("engine.node_store.decode_ns", per(ph.decode, c.transitions));
  result.set("engine.node_store.intern_hit_ns", per(ph.intern_hit, c.hits));
  result.set("engine.node_store.intern_miss_ns", per(ph.intern_miss, c.misses));
  result.set("engine.node_store.intern_share",
             static_cast<double>(ph.intern_hit + ph.intern_miss) / (wall_s * 1e9));
  result.set("engine.node_store.hit_rate", per(c.hits, interns));
  result.set("engine.node_store.avg_probe", per(ops.probe_total, ops.probe_ops));
  result.set("engine.node_store.max_probe", static_cast<double>(ops.max_probe));
  result.set("engine.replay_ns_per_transition", wall_s * 1e9 / static_cast<double>(c.transitions));
  result.set("engine.replay_wall_s", wall_s);
  result.set("engine.replay_phase_s", static_cast<double>(ph.total()) / 1e9);
  result.set("engine.replay_reference_s",
             static_cast<double>(ph.reference_decode + ph.reference_encode) / 1e9);
  result.set("engine.replay_unattributed_s", wall_s - static_cast<double>(ph.total()) / 1e9);
  return c;
}

void traced_explore(const ExploreWorkload& w, int threads, const std::string& trace_out,
                    Result& result) {
  int errors = 0;
  int attempted = 0;

  setup_explore(w, threads, result);  // rc.build_s: system construction alone

  // check + engine: the kAuto check with spans and counters attached. The
  // lane cap is raised so no expand_batch span is dropped.
  {
    ExploreSetup setup = build_explore(w, threads, check::Strategy::kAuto);
    obs::MetricsRegistry registry;
    obs::Tracer tracer(obs::Tracer::kDefaultLanes, std::size_t{1} << 22);
    setup.request.obs.metrics = &registry;
    setup.request.obs.tracer = &tracer;
    const check::CheckReport report = check::check(std::move(setup.request));
    errors += explore_errors(w, report);
    attempted += 1;
    {
      std::ofstream out(trace_out);
      tracer.write_chrome_trace(out);
    }
    std::ifstream in(trace_out);
    std::string error;
    const bool valid = obs::validate_chrome_trace(in, &error);
    if (!valid) std::cerr << "perfbench: invalid Chrome trace: " << error << "\n";
    const auto& m = report.metrics;
    const auto visited = static_cast<double>(report.stats.visited);
    result.set("trace_valid", valid ? 1 : 0);
    result.set("trace_events_dropped", static_cast<double>(tracer.events_dropped()));
    result.set("traced_verdict_s", report.seconds);
    result.set("threads_used", report.threads_used);
    result.set("check.probe_states", static_cast<double>(metric(m, "check.probe_visited")));
    result.set("check.probe_waste",
               static_cast<double>(metric(m, "check.probe_visited")) / visited);
    result.set("engine.steals", static_cast<double>(metric(m, "engine.steals")));
    result.set("engine.cas_retries", static_cast<double>(metric(m, "engine.cas_retries")));
    result.set("engine.migration_stripes",
               static_cast<double>(metric(m, "engine.migration_stripes")));
    result.set("engine.rehashes", static_cast<double>(metric(m, "store.rehashes")));
    const auto batches = metric(m, "engine.frontier_batches");
    result.set("engine.avg_batch",
               batches == 0 ? 0.0
                            : static_cast<double>(metric(m, "engine.frontier_batched_items")) /
                                  static_cast<double>(batches));
    result.set("engine.node_store.value_bytes_per_state",
               static_cast<double>(metric(m, "store.value_bytes")) / visited);
    result.set("visited", visited);
  }

  // engine scaling: kParallelBFS at t=1 and at t=threads, counters only (the
  // registry feeds the pinned-identity check), no tracer.
  const auto scaling_run = [&](int t) {
    ExploreSetup setup = build_explore(w, t, check::Strategy::kParallelBFS);
    obs::MetricsRegistry registry;
    setup.request.obs.metrics = &registry;
    const check::CheckReport report = check::check(std::move(setup.request));
    errors += explore_errors(w, report);
    attempted += 1;
    return report.seconds;
  };
  const double t1_s = scaling_run(1);
  const double tn_s = scaling_run(threads);
  result.set("engine.t1_s", t1_s);
  result.set("engine.tn_s", tn_s);
  result.set("engine.t1_states_per_s", static_cast<double>(w.visited) / t1_s);
  result.set("engine.speedup", t1_s / tn_s);

  // engine.expand + engine.node_store: the phase replay.
  {
    ExploreSetup setup = build_explore(w, 1, check::Strategy::kParallelBFS);
    const ReplayCounts c = phase_replay(setup.request, result);
    attempted += 1;
    if (c.visited != w.visited || c.transitions != w.transitions ||
        c.violation_edges != 0) {
      std::cerr << "perfbench: phase replay counted " << c.visited << " states, "
                << c.transitions << " transitions, " << c.violation_edges
                << " violating edges\n";
      errors += 1;
    }
  }
  result.set("verdict_errors", errors);
  result.set("attempted", attempted);
}

// ---------------------------------------------------------------------------
// Hierarchy grid.

struct GridCell {
  std::size_t type;
  int n;
  bool recording;
};

struct GridSetup {
  std::vector<typesys::ZooEntry> zoo;
  // caches[i] serves cells[i] alone: every predicate call gets a fresh
  // TransitionCache, as is_discerning / is_recording build for themselves, so
  // no call's time depends on which call warmed its cache before it.
  std::vector<GridCell> cells;
  std::vector<std::unique_ptr<typesys::TransitionCache>> caches;
  std::vector<const PinnedLevels*> pinned;
  double cache_build_s = 0.0;
  int setup_errors = 0;
};

GridSetup build_grid() {
  GridSetup setup;
  setup.zoo = typesys::make_zoo(kGridFamilyN);
  for (std::size_t t = 0; t < setup.zoo.size(); ++t) {
    for (int n = kGridMinN; n <= kGridMaxN; ++n) {
      setup.cells.push_back(GridCell{t, n, false});
      setup.cells.push_back(GridCell{t, n, true});
    }
  }
  const auto start = Clock::now();
  for (const GridCell& cell : setup.cells) {
    setup.caches.push_back(
        std::make_unique<typesys::TransitionCache>(*setup.zoo[cell.type].type, cell.n));
  }
  setup.cache_build_s = seconds_since(start);
  for (const typesys::ZooEntry& entry : setup.zoo) {
    const PinnedLevels* row = pinned_levels(entry.type->name());
    if (row == nullptr) {
      std::cerr << "perfbench: zoo type " << entry.type->name() << " has no pinned row\n";
      setup.setup_errors += 1;
    }
    setup.pinned.push_back(row);
  }
  if (setup.zoo.size() != std::size(kPinnedLevels)) {
    std::cerr << "perfbench: zoo has " << setup.zoo.size() << " types, pinned table "
              << std::size(kPinnedLevels) << "\n";
    setup.setup_errors += 1;
  }
  return setup;
}

// The seed shuffles the call order (Fisher-Yates over splitmix64): which
// calls run early, on a young heap, and which run late varies by seed.
std::vector<std::size_t> grid_order(std::size_t cells, std::uint64_t seed) {
  std::vector<std::size_t> order(cells);
  for (std::size_t i = 0; i < cells; ++i) order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = cells; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(util::splitmix64(state) % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

struct CellTiming {
  std::size_t index;  // into GridSetup::cells / caches
  GridCell cell;
  bool answer = false;
  double seconds = 0.0;
};

struct GridPass {
  std::vector<CellTiming> cells;
  double verdict_s = 0.0;
  int errors = 0;
};

GridPass run_grid(GridSetup& setup, std::uint64_t seed) {
  GridPass pass;
  const auto first = Clock::now();
  auto last = first;
  for (const std::size_t index : grid_order(setup.cells.size(), seed)) {
    const GridCell& cell = setup.cells[index];
    typesys::TransitionCache& cache = *setup.caches[index];
    const auto begin = Clock::now();
    const bool answer = cell.recording ? hierarchy::find_recording_witness(cache).has_value()
                                       : hierarchy::find_discerning_witness(cache).has_value();
    last = Clock::now();
    pass.cells.push_back(CellTiming{index, cell, answer, elapsed(begin, last)});
    const PinnedLevels* row = setup.pinned[cell.type];
    if (row == nullptr || answer != expected_answer(*row, cell.n, cell.recording)) {
      std::cerr << "perfbench: " << setup.zoo[cell.type].type->name() << " n=" << cell.n
                << (cell.recording ? " recording" : " discerning") << " answered "
                << (answer ? "true" : "false") << ", pinned answer differs\n";
      pass.errors += 1;
    }
  }
  pass.verdict_s = elapsed(first, last);
  return pass;
}

std::uint64_t discovered_states(const GridSetup& setup) {
  std::uint64_t total = 0;
  for (const auto& cache : setup.caches) total += cache->discovered_states();
  return total;
}

void setup_grid(Result& result) {
  std::vector<double> setup_times;
  std::vector<double> cache_times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    const GridSetup setup = build_grid();
    setup_times.push_back(seconds_since(start));
    cache_times.push_back(setup.cache_build_s);
  }
  result.set("setup_s", median(setup_times));
  result.set("typesys.cache_build_s", median(cache_times));
}

void rep_grid(std::uint64_t seed, Result& result) {
  const std::uint64_t rss_before = proc_status_bytes("VmRSS");
  GridSetup setup = build_grid();
  const GridPass pass = run_grid(setup, seed);
  const std::uint64_t hwm = proc_status_bytes("VmHWM");

  const CellTiming* slowest = &pass.cells.front();
  for (const CellTiming& t : pass.cells) {
    if (t.seconds > slowest->seconds) slowest = &t;
  }
  result.set_text("slowest_cell", setup.zoo[slowest->cell.type].type->name() +
                                      " n=" + std::to_string(slowest->cell.n) +
                                      (slowest->cell.recording ? " recording" : " discerning"));
  const auto states = static_cast<double>(discovered_states(setup));
  result.set("verdict_s", pass.verdict_s);
  result.set("slowest_predicate_s", slowest->seconds);
  result.set("states_per_s", static_cast<double>(pass.cells.size()) / pass.verdict_s);
  result.set("peak_rss_mb", static_cast<double>(hwm) / (1024.0 * 1024.0));
  result.set("rss_bytes_per_state", static_cast<double>(hwm - rss_before) / states);
  result.set("verdict_errors", pass.errors + setup.setup_errors);
  result.set("attempted", static_cast<double>(pass.cells.size()));
  result.set("discovered_states", states);
  result.set("rss_growth_bytes", static_cast<double>(hwm - rss_before));
}

void traced_grid(std::uint64_t seed, Result& result) {
  setup_grid(result);  // typesys.cache_build_s
  GridSetup setup = build_grid();
  const GridPass pass = run_grid(setup, seed);
  result.set("traced_verdict_s", pass.verdict_s);
  result.set("typesys.discovered_states", static_cast<double>(discovered_states(setup)));
  for (const CellTiming& t : pass.cells) {
    result.add(t.cell.recording ? "hierarchy.recording_s" : "hierarchy.discerning_s",
               t.seconds);
    if (!t.answer) result.add("hierarchy.negative_s", t.seconds);
    if (t.cell.n == kGridMaxN) result.add("hierarchy.n6_s", t.seconds);
  }

  // Re-drive every negative call's exhaustive search through the public
  // per-assignment checks, every candidate initial state x every assignment,
  // on the cache that call warmed.
  std::uint64_t checks = 0;
  double check_s = 0.0;
  for (const CellTiming& t : pass.cells) {
    if (t.answer) continue;
    typesys::TransitionCache& cache = *setup.caches[t.index];
    std::vector<typesys::StateId> candidates;
    std::unordered_set<typesys::StateId> seen;
    for (const typesys::StateId q0 : cache.initial_states()) {
      if (seen.insert(q0).second) candidates.push_back(q0);
    }
    int found = 0;
    const auto begin = Clock::now();
    for (const typesys::StateId q0 : candidates) {
      hierarchy::for_each_assignment(
          t.cell.n, cache.num_ops(), [&](const hierarchy::Assignment& assignment) {
            checks += 1;
            const bool holds =
                t.cell.recording
                    ? hierarchy::check_recording_assignment(cache, q0, assignment)
                    : hierarchy::check_discerning_assignment(cache, q0, assignment);
            found += holds ? 1 : 0;
            return false;
          });
    }
    check_s += seconds_since(begin);
    if (found != 0) {
      std::cerr << "perfbench: a negative cell has " << found << " passing assignments\n";
      result.add("verdict_errors", 1);
    }
  }
  result.set("hierarchy.assignment_checks", static_cast<double>(checks));
  result.set("hierarchy.check_assignment_ns",
             checks == 0 ? 0.0 : check_s * 1e9 / static_cast<double>(checks));
  result.add("verdict_errors", pass.errors + setup.setup_errors);
  result.set("attempted", static_cast<double>(pass.cells.size()));
}

// ---------------------------------------------------------------------------

int usage() {
  std::cerr << "usage: perfbench setup|rep|traced <explore-plain|explore-symmetric|hierarchy-grid>"
               " --seed N --threads T [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string mode = argv[1];
  const std::string workload = argv[2];
  std::uint64_t seed = 1;
  int threads = 1;
  std::string trace_out = "perfbench-trace.json";
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--threads") {
      threads = std::atoi(argv[i + 1]);
    } else if (flag == "--trace-out") {
      trace_out = argv[i + 1];
    } else {
      return usage();
    }
  }
  if ((mode != "setup" && mode != "rep" && mode != "traced") || threads < 1) return usage();

  Result result;
  record_context(result, workload, seed, threads, mode);
  const ExploreWorkload* explore = workload == kExplorePlain.name       ? &kExplorePlain
                                   : workload == kExploreSymmetric.name ? &kExploreSymmetric
                                                                        : nullptr;
  if (explore != nullptr) {
    if (mode == "setup") {
      setup_explore(*explore, threads, result);
    } else if (mode == "rep") {
      rep_explore(*explore, threads, result);
    } else {
      traced_explore(*explore, threads, trace_out, result);
    }
  } else if (workload == "hierarchy-grid") {
    if (mode == "setup") {
      setup_grid(result);
    } else if (mode == "rep") {
      rep_grid(seed, result);
    } else {
      traced_grid(seed, result);
    }
  } else {
    return usage();
  }
  result.print(std::cout);
  return 0;
}
