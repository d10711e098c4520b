// Checks shared by the tests that interrupt a parallel run in the middle of
// an expansion — a visited cap, an injected allocation failure, a stop
// requested by another worker.
#ifndef RCONS_TESTS_SUPPORT_INTERRUPTED_RUN_HPP
#define RCONS_TESTS_SUPPORT_INTERRUPTED_RUN_HPP

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <set>
#include <string>

#include "check/check.hpp"
#include "check/scenario_spec.hpp"
#include "check/spec_system.hpp"
#include "engine/checkpoint.hpp"
#include "obs/metrics.hpp"

namespace rcons::test {

// A kParallelBFS request for one scenario line at `threads` workers.
inline check::CheckRequest parallel_spec_request(const std::string& line, int threads) {
  check::ScenarioSpec spec;
  std::vector<std::string> errors;
  check::parse_scenario_line(line, spec, errors);
  EXPECT_TRUE(errors.empty());
  check::CheckRequest request;
  request.system = check::build_spec_system(spec);
  request.budget.crash_model = spec.crash_model;
  request.budget.crash_budget = spec.crash_budget;
  request.strategy = check::Strategy::kParallelBFS;
  request.num_threads = threads;
  request.sentinel_interval_ms = 5;
  return request;
}

inline std::uint64_t counter(const obs::MetricsSnapshot& snapshot, const char* name) {
  const obs::MetricSample* sample = obs::find_sample(snapshot, name);
  EXPECT_NE(sample, nullptr) << "missing metric " << name;
  return sample == nullptr ? 0 : sample->value;
}

// Runs `line` at `threads` workers with `interrupt` applied and a final
// checkpoint, and checks that the interruption
//   * ends in the typed truncated verdict for `reason`;
//   * keeps the conservation law over the whole run: every transition is a
//     new state, a duplicate, a violating edge or an orbit-skipped sibling;
//   * leaves a consistent cut: the checkpoint's frontier names each record at
//     most once (no item was queued twice), and — when `resumable` — a run
//     resumed from it visits exactly the states of the uninterrupted run (no
//     item was lost). A visited cap is part of the checkpoint's config hash,
//     so a capped cut only resumes under the same cap.
inline void expect_consistent_interruption(
    const std::string& line, int threads,
    const std::function<void(check::CheckRequest&)>& interrupt, sim::StopReason reason,
    const std::string& path, bool resumable = true) {
  const check::CheckReport full = check::check(parallel_spec_request(line, threads));
  ASSERT_FALSE(full.stats.truncated);

  obs::MetricsRegistry registry;
  check::CheckRequest request = parallel_spec_request(line, threads);
  request.checkpoint_path = path;
  request.checkpoint_label = line;
  request.obs.metrics = &registry;
  interrupt(request);
  const check::CheckReport partial = check::check(std::move(request));
  EXPECT_TRUE(partial.stats.truncated);
  EXPECT_EQ(partial.stats.stop_reason, reason);
  ASSERT_TRUE(partial.violation.has_value());  // the truncation marker
  EXPECT_EQ(partial.violation->property, sim::PropertyKind::kNone);

  const obs::MetricsSnapshot& m = partial.metrics;
  EXPECT_EQ(counter(m, "engine.transitions"),
            counter(m, "engine.visited_states") + counter(m, "engine.duplicates") +
                counter(m, "engine.violation_edges") + counter(m, "engine.orbit_skipped"));
  EXPECT_EQ(counter(m, "engine.visited_states"), partial.stats.visited);

  engine::CheckpointData cut;
  std::string error;
  ASSERT_EQ(engine::load_checkpoint(path, cut, error), engine::CheckpointLoad::kOk) << error;
  EXPECT_EQ(cut.visited, partial.stats.visited);
  const std::set<std::uint64_t> distinct(cut.frontier.begin(), cut.frontier.end());
  EXPECT_EQ(distinct.size(), cut.frontier.size()) << "a record was queued twice";
  if (!resumable) {
    std::remove(path.c_str());
    return;
  }

  check::CheckRequest resumed = parallel_spec_request(line, threads);
  resumed.resume = &cut;
  const check::CheckReport report = check::check(std::move(resumed));
  EXPECT_FALSE(report.stats.truncated);
  EXPECT_EQ(report.clean, full.clean);
  EXPECT_EQ(report.stats.visited, full.stats.visited);
  std::remove(path.c_str());
}

}  // namespace rcons::test

#endif  // RCONS_TESTS_SUPPORT_INTERRUPTED_RUN_HPP
