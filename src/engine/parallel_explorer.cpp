#include "engine/parallel_explorer.hpp"

#include <chrono>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "engine/checkpoint.hpp"
#include "engine/fault_inject.hpp"
#include "engine/sentinel.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace rcons::engine {

namespace {

// Adaptive pop-batch sizing: how many items a worker drains from the
// frontier per lock acquisition. Fixed batches lose both ways — too large
// and a worker hoards frontier items while its peers' steals come back
// empty; too small and every worker pays a lock round-trip per handful of
// nodes. Each worker sizes its own batch inside [kMinPopBatch, kMaxPopBatch]
// from two observations at its next pop: the frontier-wide failed-steal
// counter advanced since it last looked (peers are starving — halve, keep
// work visible to steals), or its previous pop came back full from its own
// deque (the local deque runs deep and nobody is starving — double).
constexpr std::size_t kMinPopBatch = 4;
constexpr std::size_t kInitPopBatch = 16;
constexpr std::size_t kMaxPopBatch = 128;

// The sequential phase pops one item at a time; for observability it groups
// items into batches of at least this many transitions, so metric flushes
// and expand_batch spans stay off its per-item path.
constexpr std::uint64_t kSequentialBatchTransitions = 1024;

// Per-worker recently-inserted fingerprint cache: direct-mapped, fixed size.
// A hit proves the fingerprint is already interned (everything remembered
// went through the store first), so the shard lock + table probe can be
// skipped entirely. Duplicate successors cluster in time — siblings reaching
// the same state, diamond interleavings — which is exactly what a small
// recency cache captures.
class DedupCache {
 public:
  DedupCache() : keys_(kEntries), valid_(kEntries, 0) {}

  bool seen(util::U128 key) const {
    const std::size_t index = slot(key);
    return valid_[index] != 0 && keys_[index] == key;
  }

  void remember(util::U128 key) {
    const std::size_t index = slot(key);
    keys_[index] = key;
    valid_[index] = 1;
  }

 private:
  static constexpr std::size_t kEntries = std::size_t{1} << 12;

  static std::size_t slot(util::U128 key) {
    return static_cast<std::size_t>(util::U128Hash{}(key)) & (kEntries - 1);
  }

  std::vector<util::U128> keys_;
  std::vector<std::uint8_t> valid_;
};

}  // namespace

ParallelExplorer::ParallelExplorer(sim::Memory initial,
                                   std::vector<sim::Process> processes,
                                   ParallelExplorerConfig config)
    : initial_memory_(std::move(initial)),
      initial_processes_(std::move(processes)),
      config_(std::move(config)) {
  RCONS_ASSERT(!initial_processes_.empty());
  RCONS_ASSERT(config_.crash_budget >= 0);
  RCONS_ASSERT_MSG(config_.num_threads >= 0,
                   "num_threads must be >= 0 (0 selects hardware concurrency)");
  RCONS_ASSERT_MSG(config_.shard_bits >= -1 && config_.shard_bits <= 16,
                   "shard_bits must be in [0, 16], or -1 for auto");
  num_threads_ = config_.num_threads;
  if (num_threads_ <= 0) {
    num_threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads_ <= 0) num_threads_ = 1;
  }
  shard_bits_ = config_.shard_bits >= 0
                    ? config_.shard_bits
                    : pick_shard_bits(num_threads_, config_.visited_cap());
  const bool checkpointing =
      !config_.checkpoint_path.empty() || config_.resume != nullptr;
  sequential_limit_ = checkpointing ? 0 : config_.sequential_limit;

  RCONS_ASSERT_MSG(config_.symmetry_classes.empty() ||
                       config_.symmetry_classes.size() == initial_processes_.size(),
                   "symmetry_classes must be empty or name every process");
  RCONS_ASSERT_MSG(config_.sentinel_interval_ms >= 1,
                   "sentinel_interval_ms must be >= 1");
}

void ParallelExplorer::offer_violation(std::vector<Event> path,
                                       sim::PropertyViolation broken) {
  std::lock_guard<std::mutex> lock(violation_mu_);
  if (!has_violation_ || path_less(path, best_path_)) {
    has_violation_ = true;
    best_path_ = std::move(path);
    best_violation_ = std::move(broken);
  }
}

void ParallelExplorer::request_stop(sim::StopReason reason) {
  int expected = static_cast<int>(sim::StopReason::kNone);
  stop_reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                       std::memory_order_relaxed);
  stop_.store(true, std::memory_order_relaxed);
  // A stop must never leave anyone waiting: release fault-injected stalls
  // and wake the monitor so it can skip straight to its exit check.
  if (config_.fault != nullptr) config_.fault->release_stalls();
  monitor_cv_.notify_all();
}

void ParallelExplorer::record_truncation(const PathLink* tail, const Event& event) {
  request_stop(sim::StopReason::kVisitedCap);
  // Best-effort trace of where the budget ran out (in the sequential phase,
  // the DFS path to the state over the cap); first recorder wins.
  std::lock_guard<std::mutex> lock(violation_mu_);
  if (!truncated_.load(std::memory_order_relaxed)) {
    truncated_.store(true, std::memory_order_relaxed);
    truncation_path_ = materialize_path(tail);
    truncation_path_.push_back(event);
    if (obs_cells_.active) obs_cells_.truncations->add(0, 1);
  }
}

std::string ParallelExplorer::truncation_description() const {
  switch (static_cast<sim::StopReason>(stop_reason_.load(std::memory_order_relaxed))) {
    case sim::StopReason::kNone:
      break;
    case sim::StopReason::kVisitedCap:
      return "state space exceeded max_visited; verdict incomplete";
    case sim::StopReason::kDeadline:
      return "time limit exceeded (time_limit_ms=" +
             std::to_string(config_.time_limit_ms) + "); verdict incomplete";
    case sim::StopReason::kMemory:
      return "memory limit exceeded or allocation failed (mem_limit_mb=" +
             std::to_string(config_.mem_limit_mb) + "); verdict incomplete";
    case sim::StopReason::kWatchdog:
      return "watchdog: worker made no progress; verdict incomplete —" +
             watchdog_dump_;
    case sim::StopReason::kForcedStop:
      return "run stopped by external request; verdict incomplete";
  }
  return "run stopped; verdict incomplete";
}

// --- pause barrier ----------------------------------------------------------

bool ParallelExplorer::pause_workers() {
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    pause_requested_ = true;
    pause_flag_.store(true, std::memory_order_relaxed);
  }
  std::unique_lock<std::mutex> lock(pause_mu_);
  // Grace period: a worker wedged by fault injection (or a real stall — the
  // very condition the watchdog reports) must not deadlock checkpointing.
  const auto grace = std::chrono::milliseconds(
      config_.sentinel_interval_ms * 100 < 5000 ? 5000
                                                : config_.sentinel_interval_ms * 100);
  const bool parked = parked_cv_.wait_for(lock, grace, [&] {
    return parked_ == live_workers_ || stop_.load(std::memory_order_relaxed);
  });
  if (!parked || stop_.load(std::memory_order_relaxed)) {
    pause_requested_ = false;
    pause_flag_.store(false, std::memory_order_relaxed);
    lock.unlock();
    pause_cv_.notify_all();
    return false;
  }
  // Barrier postcondition: the predicate can only have passed via the parked
  // count (the stop branch returned above), and parked workers cannot leave
  // while we hold pause_mu_ with pause_requested_ still set.
  RCONS_DCHECK_MSG(parked_ == live_workers_ && pause_requested_,
                   "pause barrier reported success without full quiescence");
  return true;  // every live worker is parked; frontier + store quiescent
}

void ParallelExplorer::resume_workers() {
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    pause_requested_ = false;
    pause_flag_.store(false, std::memory_order_relaxed);
  }
  pause_cv_.notify_all();
}

void ParallelExplorer::worker_pause_point() {
  std::unique_lock<std::mutex> lock(pause_mu_);
  if (!pause_requested_) return;  // raced with resume (or an aborted pause)
  parked_ += 1;
  parked_cv_.notify_all();
  pause_cv_.wait(lock, [&] { return !pause_requested_; });
  parked_ -= 1;
}

void ParallelExplorer::worker_exit(int id) {
  heartbeats_[static_cast<std::size_t>(id)].beats.store(kHeartbeatIdle,
                                                        std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    live_workers_ -= 1;
  }
  // A pause in flight may be waiting on this worker's park; its exit
  // satisfies the barrier the same way.
  parked_cv_.notify_all();
}

// --- monitor (resource sentinels, watchdog, periodic checkpoints) -----------

bool ParallelExplorer::monitor_needed() const {
  return config_.time_limit_ms > 0 || config_.mem_limit_mb > 0 ||
         config_.watchdog_stall_intervals > 0 ||
         (!config_.checkpoint_path.empty() && config_.checkpoint_every > 0);
}

void ParallelExplorer::monitor_loop(const std::function<bool()>& write_snapshot) {
  const std::int64_t deadline_ms =
      config_.time_limit_ms > 0 ? steady_now_ms() + config_.time_limit_ms : 0;
  const std::uint64_t rss_cap_bytes =
      config_.mem_limit_mb > 0
          ? static_cast<std::uint64_t>(config_.mem_limit_mb) << 20
          : 0;
  const std::uint64_t ckpt_every =
      write_snapshot != nullptr ? config_.checkpoint_every : 0;

  std::vector<std::uint64_t> last_beats(static_cast<std::size_t>(num_threads_), 0);
  std::vector<int> stalled(static_cast<std::size_t>(num_threads_), 0);
  std::uint64_t last_ckpt_visited = resume_visited_;

  std::unique_lock<std::mutex> lock(monitor_mu_);
  for (;;) {
    monitor_cv_.wait_for(lock,
                         std::chrono::milliseconds(config_.sentinel_interval_ms),
                         [&] { return monitor_exit_; });
    if (monitor_exit_) return;
    if (stop_.load(std::memory_order_relaxed)) continue;  // wait for the join

    if (deadline_ms != 0 && steady_now_ms() >= deadline_ms) {
      request_stop(sim::StopReason::kDeadline);
      continue;
    }
    if (rss_cap_bytes != 0) {
      const std::uint64_t rss = current_rss_bytes();
      // A 0 reading means RSS is unavailable here; never trip on it.
      if (rss != 0 && rss > rss_cap_bytes) {
        request_stop(sim::StopReason::kMemory);
        continue;
      }
    }
    if (config_.watchdog_stall_intervals > 0) {
      std::string dump;
      for (int i = 0; i < num_threads_; ++i) {
        const auto slot = static_cast<std::size_t>(i);
        const std::uint64_t beats = heartbeats_[slot].beats.load(std::memory_order_relaxed);
        if (beats == kHeartbeatIdle) {
          stalled[slot] = 0;
          continue;
        }
        if (beats == last_beats[slot]) {
          stalled[slot] += 1;
        } else {
          stalled[slot] = 0;
          last_beats[slot] = beats;
        }
        if (stalled[slot] >= config_.watchdog_stall_intervals) {
          dump += " worker " + std::to_string(i) + ": no progress for " +
                  std::to_string(stalled[slot]) + " intervals (heartbeat=" +
                  std::to_string(beats) + ")";
        }
      }
      if (!dump.empty()) {
        {
          std::lock_guard<std::mutex> vlock(violation_mu_);
          watchdog_dump_ = dump;
        }
        request_stop(sim::StopReason::kWatchdog);
        continue;
      }
    }
    if (ckpt_every != 0) {
      const std::uint64_t visited = visited_count_.load(std::memory_order_relaxed);
      if (visited >= last_ckpt_visited + ckpt_every) {
        // The snapshot pauses the workers itself; drop monitor_mu_ so
        // request_stop (from a worker hitting the cap meanwhile) never
        // queues behind the pause.
        lock.unlock();
        const bool written = write_snapshot();
        lock.lock();
        if (written) last_ckpt_visited = visited;
      }
    }
  }
}

void ParallelExplorer::stop_monitor(std::thread& monitor) {
  if (!monitor.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    monitor_exit_ = true;
  }
  monitor_cv_.notify_all();
  monitor.join();
}

void ParallelExplorer::flush_worker_obs(std::size_t lane, WorkerStats& last_flushed,
                                        const WorkerStats& local,
                                        std::uint64_t pending_now) {
  // Workers flush only at event-classification boundaries, where the
  // conservation law must hold exactly.
  dcheck_transitions_identity(local);
  ObsDeltas delta;
  delta.visited = local.visited - last_flushed.visited;
  delta.transitions = local.transitions - last_flushed.transitions;
  delta.decisions = local.decisions - last_flushed.decisions;
  delta.terminal_states = local.terminal_states - last_flushed.terminal_states;
  delta.duplicates = local.duplicates - last_flushed.duplicates;
  delta.violation_edges = local.violation_edges - last_flushed.violation_edges;
  delta.encodes = local.encodes - last_flushed.encodes;
  delta.canonical_hits = local.canonical_hits - last_flushed.canonical_hits;
  delta.nodes = local.store_nodes - last_flushed.store_nodes;
  delta.value_bytes = local.store_bytes - last_flushed.store_bytes;
  delta.cache_probes = local.cache_probes - last_flushed.cache_probes;
  delta.cache_hits = local.cache_hits - last_flushed.cache_hits;
  delta.batches = local.batches - last_flushed.batches;
  delta.batched_items = local.batched_items - last_flushed.batched_items;
  delta.orbit_skipped = local.orbit_skipped - last_flushed.orbit_skipped;
  delta.cas_retries = local.ops.cas_retries - last_flushed.ops.cas_retries;
  delta.migration_stripes =
      local.ops.migration_stripes - last_flushed.ops.migration_stripes;
  obs_cells_.flush(lane, delta);
  // Any recent writer's view of the pending count is equally good (gauge is
  // last-write-wins), so a plain relaxed sample suffices.
  obs_cells_.frontier_pending->set(static_cast<std::int64_t>(pending_now));
  last_flushed = local;
}

void ParallelExplorer::worker(int id, Frontier& frontier, NodeStore& store,
                              PathArena& arena, std::atomic<std::uint64_t>& pending,
                              WorkerStats& local, bool sequential) {
  // Per-worker reusable state: one scratch node (restored from the parent's
  // record between successors — no Node copies), the record/event buffers,
  // the orbit mask, the popped and successor batches, and the
  // recently-inserted cache. Zero allocations per successor after warmup.
  NodeCodec codec(config_.symmetry_classes);
  Node parent = make_root(initial_memory_, initial_processes_, config_.properties);
  std::vector<Event> events;
  std::vector<typesys::Value> child_record;
  std::vector<std::uint8_t> orbit_skip;
  std::vector<WorkItem> batch;
  std::vector<WorkItem> successors;
  DedupCache cache;
  const bool orbits = codec.canonicalizing();

  // Observability: metrics flush at batch boundaries (obs_cells_ inactive =
  // one predicted branch per batch), spans on the tracer's worker lane.
  obs::Tracer* const tracer = config_.obs.tracer;
  const std::size_t obs_lane = 1 + static_cast<std::size_t>(id);
  const std::size_t trace_lane = tracer != nullptr ? tracer->worker_lane(id) : 0;
  if (tracer != nullptr) {
    tracer->set_lane_name(trace_lane, "worker-" + std::to_string(id));
  }
  // Worker 0 enters the parallel phase with its sequential totals flushed.
  WorkerStats flushed = local;
  const std::uint64_t worker_begin = tracer != nullptr ? tracer->now_us() : 0;
  std::uint64_t batch_begin = worker_begin;
  std::uint64_t batch_mark = local.transitions;  // sequential batch boundary
  std::size_t pop_batch = sequential ? 1 : kInitPopBatch;
  std::uint64_t steal_mark = frontier.failed_steals();
  Heartbeat& heartbeat = heartbeats_[static_cast<std::size_t>(id)];
  std::uint64_t beats = 0;
  FaultPlan* const fault = config_.fault;
  bool first_violation = false;  // the sequential phase's exit on a violation

  // Any allocation failure — fault-injected at the batch/intern sites or a
  // real bad_alloc out of index/arena/deque growth — lands here and becomes
  // the typed StopReason::kMemory truncated verdict; it never escapes.
  try {
    for (;;) {
      heartbeat.beats.store(++beats, std::memory_order_relaxed);
      if (batch.empty()) {
        // Cooperative stop: exit immediately. Queued work stays queued (and
        // pending-counted), so a checkpoint taken after the join still sees
        // every outstanding item; every worker leaves through this check, so
        // pending never reaching 0 cannot hang anyone.
        if (stop_.load(std::memory_order_relaxed) || first_violation) break;
        if (sequential &&
            visited_count_.load(std::memory_order_relaxed) >= sequential_limit_) {
          break;  // hand the DFS stack over to the parallel phase
        }
        if (pause_flag_.load(std::memory_order_relaxed)) {
          worker_pause_point();
          continue;
        }
        if (sequential && local.transitions - batch_mark >= kSequentialBatchTransitions) {
          batch_mark = local.transitions;
          if (tracer != nullptr) {
            const std::uint64_t now = tracer->now_us();
            tracer->complete(trace_lane, "expand_batch", batch_begin, now);
            batch_begin = now;
          }
          if (obs_cells_.active) {
            flush_worker_obs(obs_lane, flushed, local,
                             pending.load(std::memory_order_relaxed));
          }
        } else if (!sequential && obs_cells_.active) {
          flush_worker_obs(obs_lane, flushed, local,
                           pending.load(std::memory_order_relaxed));
        }
        // Adapt the batch size to observed steal pressure before popping.
        const std::uint64_t failed = frontier.failed_steals();
        if (!sequential && failed != steal_mark) {
          steal_mark = failed;
          pop_batch = pop_batch / 2 < kMinPopBatch ? kMinPopBatch : pop_batch / 2;
        }
        const std::uint64_t pop_begin =
            tracer != nullptr && !sequential ? tracer->now_us() : 0;
        bool stole = false;
        const std::size_t got = frontier.pop_batch(id, batch, pop_batch, &stole);
        if (got == 0) {
          if (pending.load(std::memory_order_acquire) == 0) break;
          std::this_thread::yield();
          continue;
        }
        if (fault != nullptr &&
            fault->hit(FaultPlan::Site::kBatch) == FaultPlan::Action::kStop) {
          request_stop(sim::StopReason::kForcedStop);
        }
        if (!sequential && !stole && got == pop_batch && pop_batch < kMaxPopBatch) {
          pop_batch *= 2;  // local deque runs deep, nobody is starving
        }
        if (tracer != nullptr && !sequential) {
          batch_begin = tracer->now_us();
          if (stole) tracer->complete(trace_lane, "steal", pop_begin, batch_begin);
        }
      } else if (stop_.load(std::memory_order_relaxed) ||
                 pause_flag_.load(std::memory_order_relaxed)) {
        // Hand the unprocessed remainder back (still pending-counted) so a
        // pause or post-stop checkpoint sees every outstanding item; the
        // next iteration parks or exits.
        frontier.push_batch(id, batch);
        batch.clear();
        continue;
      }
      const WorkItem item = batch.back();
      batch.pop_back();

      // The item's record view reads straight from the store arena — no
      // fetch lock, no copy (see NodeStore::Intern). decode() also captures
      // the record's layout for the restore/patch-encode fast paths below.
      codec.decode(item.record, item.length, parent);
      // Stabilizer orbits: enumerate one representative event per orbit of
      // interchangeable processes; the skipped siblings still count as
      // transitions (they are edges of the unreduced graph) plus
      // orbit_skipped. A continuation re-enumerates the same events; its
      // skips and terminal status were counted when it was first expanded.
      std::uint64_t orbit_skipped = 0;
      const int orbit_count =
          orbits ? codec.orbit_skip_mask(item.record, orbit_skip) : 0;
      enumerate_events(parent, config_, events,
                       orbit_count > 0 ? &orbit_skip : nullptr, &orbit_skipped);
      if (item.resume == 0) {
        local.orbit_skipped += orbit_skipped;
        local.transitions += orbit_skipped;
        if (is_terminal(parent)) local.terminal_states += 1;
      }
      successors.clear();
      bool incomplete = false;
      bool continued = false;  // a continuation took over the item's pending slot
      // Codec header: record[1] counts the distinct outputs so far.
      const auto parent_decisions = static_cast<std::size_t>(item.record[1]);

      // Between successors the scratch node diverges from the parent record
      // only where the previous event touched it: the shared flat fields
      // plus exactly one process (or all of them after a crash-all). restore
      // re-decodes just that — one program decode per successor instead of n.
      int dirty = NodeCodec::kDirtyNone;
      for (std::uint32_t i = item.resume; i < events.size(); ++i) {
        const Event& event = events[i];
        if (stop_.load(std::memory_order_relaxed)) {
          incomplete = true;
          break;
        }
        local.transitions += 1;
        if (dirty != NodeCodec::kDirtyNone) {
          codec.restore(item.record, item.length, parent, dirty);
        }
        dirty = event.kind == Event::Kind::kCrashAll ? NodeCodec::kDirtyAll
                                                     : event.process;
        if (auto broken = apply_event(parent, event, config_)) {
          local.violation_edges += 1;
          std::vector<Event> path = materialize_path(item.tail);
          path.push_back(event);
          offer_violation(std::move(path), std::move(*broken));
          if (sequential) {
            first_violation = true;  // the DFS reports its first violation
            incomplete = true;
            break;
          }
          continue;  // a violating edge is never expanded further
        }
        if (parent.decisions.size() > parent_decisions) local.decisions += 1;
        // Per-process events leave n-1 blocks byte-identical to the parent
        // record: patch-encode copies them instead of re-encoding programs.
        const NodeCodec::Encoded encoded =
            event.kind == Event::Kind::kCrashAll
                ? codec.encode(parent, child_record)
                : codec.encode_successor(item.record, item.length, parent,
                                         event.process, child_record);
        local.encodes += 1;
        if (encoded.permuted) local.canonical_hits += 1;
        local.cache_probes += 1;
        if (cache.seen(encoded.fingerprint)) {
          local.cache_hits += 1;
          local.duplicates += 1;
          continue;  // guaranteed duplicate: skip the table probe entirely
        }
        if (fault != nullptr) fault->hit(FaultPlan::Site::kIntern);
        const NodeStore::Intern interned =
            store.intern(encoded.fingerprint, child_record, id, &local.ops);
        cache.remember(encoded.fingerprint);
        if (!interned.inserted) {
          local.duplicates += 1;
          continue;
        }
        local.store_nodes += 1;
        local.store_bytes +=
            static_cast<std::uint64_t>(interned.length) * sizeof(typesys::Value);

        const std::uint64_t count =
            visited_count_.fetch_add(1, std::memory_order_relaxed) + 1;
        local.visited += 1;
        if (count > config_.visited_cap()) {
          record_truncation(item.tail, event);
          incomplete = true;
          break;
        }
        if (sequential && i + 1 < events.size()) {
          // Depth-first: the rest of this expansion waits under the child.
          successors.push_back(WorkItem{item.record, item.length, i + 1, item.tail});
          continued = true;
        }
        successors.push_back(WorkItem{interned.record, interned.length, 0,
                                      arena.add(event, item.tail)});
        local.allocations_avoided += 2;  // inline frontier item + arena link
        if (sequential) break;
      }

      if (!successors.empty()) {
        const std::size_t children = successors.size() - (continued ? 1 : 0);
        local.batches += 1;
        local.batched_items += children;
        if (obs_cells_.active) obs_cells_.batch_size->record(obs_lane, children);
        pending.fetch_add(children, std::memory_order_release);
        frontier.push_batch(id, successors);
        successors.clear();
      }
      if (incomplete) {
        // A stop interrupted this expansion: re-queue the item WITHOUT
        // releasing its pending slot. A resumed run re-expands it and the
        // already-interned successors dedup away, so nothing is lost and
        // visited counts stay exact.
        frontier.push(id, item);
      } else if (!continued) {
        pending.fetch_sub(1, std::memory_order_release);
      }
      if (tracer != nullptr && !sequential && batch.empty()) {
        tracer->complete(trace_lane, "expand_batch", batch_begin, tracer->now_us());
      }
    }
  } catch (const std::bad_alloc&) {
    // An allocation failed mid-event (real exhaustion or an injected alloc
    // fault): the in-flight event was already tallied as a transition but its
    // classification never completed. Drop the half-counted transition so
    // the conservation law stays exact at the flush/exit DCHECK below — the
    // run is truncated (kMemory) either way, and an unclassified transition
    // would overstate the explored edge count.
    // (The deviation is the one unclassified event, or orbit skips recorded
    // by an interrupted expansion before their transition credit landed;
    // reconciling to the classified sum restores the law in both
    // directions.)
    local.transitions =
        local.visited + local.duplicates + local.violation_edges + local.orbit_skipped;
    request_stop(sim::StopReason::kMemory);
  }

  dcheck_transitions_identity(local);  // holds even when obs flushing is off
  if (obs_cells_.active) {
    flush_worker_obs(obs_lane, flushed, local,
                     pending.load(std::memory_order_relaxed));
  }
  if (tracer != nullptr) {
    const std::uint64_t now = tracer->now_us();
    if (sequential) tracer->complete(trace_lane, "expand_batch", batch_begin, now);
    tracer->complete(trace_lane, "worker", worker_begin, now);
  }
  if (sequential) {
    heartbeat.beats.store(kHeartbeatIdle, std::memory_order_relaxed);
  } else {
    worker_exit(id);
  }
}

std::optional<sim::Violation> ParallelExplorer::run() {
  stats_ = sim::ExplorerStats{};
  visited_count_.store(0, std::memory_order_relaxed);
  stop_.store(false, std::memory_order_relaxed);
  truncated_.store(false, std::memory_order_relaxed);
  stop_reason_.store(static_cast<int>(sim::StopReason::kNone),
                     std::memory_order_relaxed);
  checkpoints_written_.store(0, std::memory_order_relaxed);
  resume_visited_ = 0;
  resume_transitions_ = 0;
  resume_decisions_ = 0;
  resume_terminal_states_ = 0;
  resume_orbit_skipped_ = 0;
  resume_encodes_ = 0;
  resume_canonical_hits_ = 0;
  resume_checkpoints_ = 0;
  has_violation_ = false;
  best_path_.clear();
  best_violation_ = sim::PropertyViolation{};
  truncation_path_.clear();
  watchdog_dump_.clear();

  heartbeats_ = std::make_unique<Heartbeat[]>(static_cast<std::size_t>(num_threads_));
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    pause_requested_ = false;
    parked_ = 0;
    live_workers_ = num_threads_;
  }
  pause_flag_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    monitor_exit_ = false;
  }

  stayed_sequential_ = false;

  obs_cells_ = ObsCells::resolve(config_.obs.metrics);
  if (obs_cells_.active) {
    obs_cells_.visited_cap->set(static_cast<std::int64_t>(config_.visited_cap()));
  }

  return explore();
}

std::optional<sim::Violation> ParallelExplorer::explore() {
  Frontier frontier(num_threads_);
  NodeStore store(shard_bits_, 0, num_threads_);
  std::vector<PathArena> arenas(static_cast<std::size_t>(num_threads_));
  std::atomic<std::uint64_t> pending{0};
  std::vector<WorkerStats> worker_stats(static_cast<std::size_t>(num_threads_));

  // The root is always encoded — a resume checks its fingerprint against the
  // checkpoint's (same initial memory + programs) before trusting the file.
  NodeCodec codec(config_.symmetry_classes);
  Node root_node = make_root(initial_memory_, initial_processes_, config_.properties);
  std::vector<typesys::Value> root_record;
  const NodeCodec::Encoded root_encoded = codec.encode(root_node, root_record);
  const std::uint64_t root_canonical_hits = root_encoded.permuted ? 1 : 0;

  if (config_.resume != nullptr) {
    const CheckpointData& ckpt = *config_.resume;
    RCONS_ASSERT_MSG(ckpt.root_fp.lo == root_encoded.fingerprint.lo &&
                         ckpt.root_fp.hi == root_encoded.fingerprint.hi,
                     "resume checkpoint was taken from a different root state");
    RCONS_ASSERT_MSG(ckpt.config_hash == checkpoint_config_hash(config_),
                     "resume checkpoint was taken under a different config");
    // Re-intern the checkpointed records: the store again doubles as the
    // visited set, so every state expanded before the cut dedups away when
    // the resumed frontier re-reaches it.
    static_assert(std::is_same_v<typesys::Value, std::int64_t>,
                  "checkpoint records are raw value vectors");
    std::vector<NodeStore::Intern> interned;
    interned.reserve(ckpt.nodes.size());
    for (const CheckpointData::Node& node : ckpt.nodes) {
      interned.push_back(store.intern(node.fp, node.values));
    }
    visited_count_.store(ckpt.visited, std::memory_order_relaxed);
    resume_visited_ = ckpt.visited;
    resume_transitions_ = ckpt.transitions;
    resume_decisions_ = ckpt.decisions;
    resume_terminal_states_ = ckpt.terminal_states;
    resume_orbit_skipped_ = ckpt.orbit_skipped;
    resume_encodes_ = ckpt.encodes;
    resume_canonical_hits_ = ckpt.canonical_hits;
    resume_checkpoints_ = ckpt.checkpoints_written;
    if (ckpt.has_violation) {
      has_violation_ = true;
      best_violation_.description = ckpt.violation_description;
      best_violation_.property = ckpt.violation_property;
      best_violation_.param = ckpt.violation_param;
      best_path_ = ckpt.violation_schedule;
    }
    // Re-seed the frontier round-robin (path backlinks are not checkpointed:
    // post-resume violation traces are suffixes rooted at the cut).
    for (std::size_t i = 0; i < ckpt.frontier.size(); ++i) {
      const NodeStore::Intern& node = interned[ckpt.frontier[i]];
      pending.fetch_add(1, std::memory_order_release);
      frontier.push(static_cast<int>(i % static_cast<std::size_t>(num_threads_)),
                    WorkItem{node.record, node.length, 0, nullptr});
    }
  } else {
    const NodeStore::Intern interned =
        store.intern(root_encoded.fingerprint, root_record);
    pending.fetch_add(1, std::memory_order_release);
    frontier.push(0, WorkItem{interned.record, interned.length, 0, nullptr});
    if (obs_cells_.active) {
      // The coordinator's root intern, on lane 0, so store.* totals match
      // store.stats() exactly (the workers account everything else live).
      ObsDeltas root_delta;
      root_delta.nodes = 1;
      root_delta.value_bytes =
          static_cast<std::uint64_t>(interned.length) * sizeof(typesys::Value);
      root_delta.encodes = 1;
      root_delta.canonical_hits = root_canonical_hits;
      obs_cells_.flush(0, root_delta);
    }
  }
  // A resume's root re-encode was already counted by the original run.
  const std::uint64_t fresh_encodes = config_.resume == nullptr ? 1 : 0;
  const std::uint64_t fresh_canonical_hits =
      config_.resume == nullptr ? root_canonical_hits : 0;

  const std::uint64_t config_hash = checkpoint_config_hash(config_);

  // Fills a checkpoint from the current state. Caller contract: the workers
  // are parked at the pause barrier or have all joined (frontier + store
  // quiescent, worker_stats stable).
  auto gather = [&](CheckpointData& data) {
    data.config_hash = config_hash;
    data.label = config_.checkpoint_label;
    data.root_fp = root_encoded.fingerprint;
    data.visited = visited_count_.load(std::memory_order_relaxed);
    data.transitions = resume_transitions_;
    data.decisions = resume_decisions_;
    data.terminal_states = resume_terminal_states_;
    data.orbit_skipped = resume_orbit_skipped_;
    data.encodes = resume_encodes_ + fresh_encodes;
    data.canonical_hits = resume_canonical_hits_ + fresh_canonical_hits;
    for (const WorkerStats& local : worker_stats) {
      data.transitions += local.transitions;
      data.decisions += local.decisions;
      data.terminal_states += local.terminal_states;
      data.orbit_skipped += local.orbit_skipped;
      data.encodes += local.encodes;
      data.canonical_hits += local.canonical_hits;
    }
    data.checkpoints_written =
        resume_checkpoints_ + checkpoints_written_.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(violation_mu_);
      data.has_violation = has_violation_;
      if (has_violation_) {
        data.violation_description = best_violation_.description;
        data.violation_property = best_violation_.property;
        data.violation_param = best_violation_.param;
        data.violation_schedule = best_path_;
      }
    }
    data.nodes.clear();
    data.frontier.clear();
    std::unordered_map<const typesys::Value*, std::uint64_t> record_index;
    store.for_each_record(
        [&](util::U128 fp, const typesys::Value* values, std::uint32_t length) {
          record_index.emplace(values, data.nodes.size());
          CheckpointData::Node node;
          node.fp = fp;
          node.values.assign(values, values + length);
          data.nodes.push_back(std::move(node));
        });
    std::vector<WorkItem> items;
    frontier.snapshot(items);
    // Quiescence invariant (PR 8): with every worker parked or joined, each
    // pending-counted item is physically in the frontier — none are buffered
    // worker-side or mid-expansion. A mismatch means the cut is not
    // consistent and the checkpoint would silently lose or duplicate work.
    RCONS_DCHECK_MSG(pending.load(std::memory_order_relaxed) == items.size(),
                     "checkpoint cut taken without frontier quiescence "
                     "(pending != snapshot size)");
    data.frontier.reserve(items.size());
    for (const WorkItem& item : items) {
      // Checkpointing runs start in the parallel phase, which never splits
      // an expansion into continuations; the format stores whole nodes.
      RCONS_DCHECK_MSG(item.resume == 0,
                       "checkpoint frontier holds a partially expanded continuation");
      const auto it = record_index.find(item.record);
      RCONS_ASSERT_MSG(it != record_index.end(),
                       "frontier item missing from the node store");
      data.frontier.push_back(it->second);
    }
  };

  // Periodic snapshot (monitor thread): park everyone, gather, resume, then
  // write outside the barrier so a slow disk never blocks exploration.
  auto write_snapshot = [&]() -> bool {
    if (!pause_workers()) return false;  // stop in flight or a wedged worker
    CheckpointData data;
    gather(data);
    resume_workers();
    std::string error;
    if (!write_checkpoint(config_.checkpoint_path, data, config_.fault, error)) {
      return false;
    }
    checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  std::thread monitor;
  if (monitor_needed()) {
    std::function<bool()> snapshot_fn;
    if (!config_.checkpoint_path.empty() && config_.checkpoint_every > 0) {
      snapshot_fn = write_snapshot;
    }
    monitor = std::thread([this, snapshot_fn] { monitor_loop(snapshot_fn); });
  }

  const auto run_worker = [&](int id, bool sequential) {
    worker(id, frontier, store, arenas[static_cast<std::size_t>(id)], pending,
           worker_stats[static_cast<std::size_t>(id)], sequential);
  };
  if (sequential_limit_ > 0) {
    if (obs_cells_.active) obs_cells_.num_threads->set(1);
    run_worker(0, /*sequential=*/true);
    stayed_sequential_ = stop_.load(std::memory_order_relaxed) || has_violation_ ||
                         pending.load(std::memory_order_relaxed) == 0;
    // Worker 0 returned and nobody else has started: the store is quiescent,
    // so the index arrays its growth retired can go before the parallel
    // phase grows the index further.
    if (!stayed_sequential_) store.release_retired();
  }
  if (!stayed_sequential_) {
    if (obs_cells_.active) obs_cells_.num_threads->set(num_threads_);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(num_threads_));
    for (int id = 0; id < num_threads_; ++id) {
      threads.emplace_back([&run_worker, id] { run_worker(id, /*sequential=*/false); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  stop_monitor(monitor);

  // Final checkpoint at exit — complete, truncated, or violating alike. The
  // workers joined, so the cut is trivially consistent (no pause needed).
  if (!config_.checkpoint_path.empty()) {
    CheckpointData data;
    gather(data);
    std::string error;
    if (write_checkpoint(config_.checkpoint_path, data, config_.fault, error)) {
      checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const NodeStore::Stats store_stats = store.stats();
  stats_.store.nodes = store_stats.nodes;
  stats_.store.value_bytes = store_stats.value_bytes;
  stats_.store.encodes = fresh_encodes;
  stats_.store.canonical_hits = fresh_canonical_hits;
  visited_stats_ = store.load_stats();
  frontier_stats_ = frontier.stats();
  return finish(worker_stats);
}

std::optional<sim::Violation> ParallelExplorer::finish(
    const std::vector<WorkerStats>& worker_stats) {
  // `visited` counts the states inserted during expansion (the root insert is
  // not counted).
  stats_.visited = visited_count_.load(std::memory_order_relaxed);
  stats_.stop_reason =
      static_cast<sim::StopReason>(stop_reason_.load(std::memory_order_relaxed));
  stats_.truncated = stats_.stop_reason != sim::StopReason::kNone;
  stats_.checkpoints_written =
      resume_checkpoints_ + checkpoints_written_.load(std::memory_order_relaxed);
  stats_.transitions = resume_transitions_;
  stats_.decisions = resume_decisions_;
  stats_.terminal_states = resume_terminal_states_;
  stats_.orbit_skipped = resume_orbit_skipped_;
  stats_.store.encodes += resume_encodes_;
  stats_.store.canonical_hits += resume_canonical_hits_;
  for (const WorkerStats& local : worker_stats) {
    stats_.transitions += local.transitions;
    stats_.decisions += local.decisions;
    stats_.terminal_states += local.terminal_states;
    stats_.orbit_skipped += local.orbit_skipped;
    stats_.store.encodes += local.encodes;
    stats_.store.canonical_hits += local.canonical_hits;
    stats_.hot.allocations_avoided += local.allocations_avoided;
    stats_.hot.batches += local.batches;
    stats_.hot.batched_items += local.batched_items;
    stats_.hot.dedup_cache_probes += local.cache_probes;
    stats_.hot.dedup_cache_hits += local.cache_hits;
    // Probe/contention counters are caller-side OpStats (the lock-free
    // tables hold no shared tallies); aggregate across workers here.
    stats_.hot.probe_total += local.ops.probe_total;
    stats_.hot.probe_ops += local.ops.probe_ops;
    if (local.ops.max_probe > stats_.hot.max_probe) {
      stats_.hot.max_probe = local.ops.max_probe;
    }
    stats_.hot.cas_retries += local.ops.cas_retries;
    stats_.hot.migration_stripes += local.ops.migration_stripes;
  }
  stats_.hot.rehashes = visited_stats_.rehashes;

  if (obs_cells_.active) {
    // Steal and rehash totals live in the frontier/table internals; publish
    // them once per run rather than threading handles through those layers.
    if (frontier_stats_.steals != 0) {
      obs_cells_.steals->add(0, frontier_stats_.steals);
    }
    if (frontier_stats_.stolen_items != 0) {
      obs_cells_.stolen_items->add(0, frontier_stats_.stolen_items);
    }
    if (stats_.hot.rehashes != 0) {
      obs_cells_.store_rehashes->add(0, stats_.hot.rehashes);
    }
    obs_cells_.frontier_pending->set(0);
  }

  if (has_violation_) {
    return sim::Violation{best_violation_.description, best_violation_.property,
                          best_violation_.param, best_path_};
  }
  if (stats_.truncated) {
    // Typed truncated verdict: full partial stats, a reason-specific
    // description, and (for the visited-cap case) a best-effort partial
    // trace. Never an abort, never an empty report.
    return sim::Violation{truncation_description(), sim::PropertyKind::kNone, 0,
                          truncation_path_};
  }
  return std::nullopt;
}

}  // namespace rcons::engine
