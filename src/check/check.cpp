#include "check/check.hpp"

#include <chrono>
#include <utility>

#include "engine/parallel_explorer.hpp"
#include "obs/trace.hpp"
#include "sim/random_runner.hpp"
#include "sim/replay.hpp"
#include "util/assert.hpp"

namespace rcons::check {

namespace {

using Clock = std::chrono::steady_clock;

// Every exhaustive strategy is one engine run; they differ only in how many
// states worker 0 explores alone, depth-first, before the others start.
CheckReport run_exhaustive(const CheckRequest& request, std::uint64_t sequential_limit,
                           int num_threads) {
  engine::ParallelExplorerConfig config;
  static_cast<Budget&>(config) = request.budget;
  config.properties = request.system.properties;
  config.symmetry_classes = request.system.symmetry_classes;
  config.obs = request.obs;
  config.sentinel_interval_ms = request.sentinel_interval_ms;
  config.watchdog_stall_intervals = request.watchdog_stall_intervals;
  config.checkpoint_path = request.checkpoint_path;
  config.checkpoint_every = request.checkpoint_every;
  config.checkpoint_label = request.checkpoint_label;
  config.resume = request.resume;
  config.fault = request.fault;
  config.num_threads = num_threads;
  config.shard_bits = request.shard_bits;
  config.sequential_limit = sequential_limit;
  engine::ParallelExplorer explorer(request.system.memory, request.system.processes,
                                    config);
  CheckReport report;
  {
    obs::Span span(request.obs.tracer, 0, "explore");
    report.violation = explorer.run();
  }
  const bool sequential = explorer.stayed_sequential();
  report.strategy = sequential ? Strategy::kSequentialDFS : Strategy::kParallelBFS;
  report.stats = explorer.stats();
  report.threads_used = sequential ? 1 : explorer.num_threads();
  report.clean = !report.violation.has_value();
  report.complete = !report.stats.truncated;
  return report;
}

CheckReport run_randomized(const CheckRequest& request) {
  sim::RandomRunConfig config;
  static_cast<Budget&>(config) = request.budget;
  config.properties = request.system.properties;
  config.crash_per_mille = request.crash_per_mille;
  config.max_total_steps = request.max_total_steps;
  config.obs = request.obs;

  CheckReport report;
  report.strategy = Strategy::kRandomized;
  report.complete = false;  // sampling proves nothing exhaustively
  const int runs = request.runs < 1 ? 1 : request.runs;
  for (int run = 0; run < runs; ++run) {
    config.seed = request.seed + static_cast<std::uint64_t>(run);
    sim::RandomRunReport run_report = sim::run_random(
        request.system.memory, request.system.processes, config);
    report.runs += 1;
    report.total_steps += run_report.steps;
    report.total_crashes += run_report.crashes;
    report.outputs = std::move(run_report.outputs);
    if (run_report.violation.has_value()) {
      report.violation = sim::Violation{std::move(run_report.violation->description),
                                        run_report.violation->property,
                                        run_report.violation->param,
                                        std::move(run_report.schedule)};
      break;
    }
    // A run stopped by a violation is not "incomplete" — that field counts
    // runs that hit max_total_steps without everyone deciding.
    report.incomplete_runs += run_report.all_decided ? 0 : 1;
  }
  report.clean = !report.violation.has_value();
  return report;
}

CheckReport run_replay(const CheckRequest& request) {
  sim::ReplayReport replay_report =
      sim::replay(request.system.memory, request.system.processes, request.schedule,
                  request.system.properties, request.budget.max_steps_per_run,
                  request.obs);
  CheckReport report;
  report.strategy = Strategy::kReplay;
  report.complete = false;  // one schedule, not the whole graph
  report.outputs = std::move(replay_report.outputs);
  report.decisions = std::move(replay_report.decisions);
  if (replay_report.violation.has_value()) {
    report.violation = sim::Violation{std::move(replay_report.violation->description),
                                      replay_report.violation->property,
                                      replay_report.violation->param,
                                      request.schedule};
  }
  report.clean = !report.violation.has_value();
  return report;
}

}  // namespace

const char* strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kAuto:
      return "auto";
    case Strategy::kSequentialDFS:
      return "sequential-dfs";
    case Strategy::kParallelBFS:
      return "parallel-bfs";
    case Strategy::kRandomized:
      return "randomized";
    case Strategy::kReplay:
      return "replay";
  }
  return "unknown";
}

CheckReport check(CheckRequest request) {
  RCONS_ASSERT_MSG(!request.system.processes.empty(),
                   "a CheckRequest needs at least one process");
  const auto start = Clock::now();
  CheckReport report;
  {
    obs::Span span(request.obs.tracer, 0, "check");
    switch (request.strategy) {
      case Strategy::kAuto:
        report = run_exhaustive(request, request.sequential_limit, request.num_threads);
        break;
      case Strategy::kSequentialDFS:
        report = run_exhaustive(request, engine::kSequentialOnly, 1);
        break;
      case Strategy::kParallelBFS:
        report = run_exhaustive(request, 0, request.num_threads);
        break;
      case Strategy::kRandomized:
        report = run_randomized(request);
        break;
      case Strategy::kReplay:
        report = run_replay(request);
        break;
    }
  }
  if (request.obs.metrics != nullptr) {
    report.metrics = request.obs.metrics->snapshot();
  }
  report.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return report;
}

}  // namespace rcons::check
