// Resource sentinels and graceful truncation: every budget exhaustion —
// visited cap (including the non-positive edge), wall clock, memory — comes
// back as a typed truncated verdict with partial statistics, in both engine
// phases and across kAuto's switch between them. Never an abort, never an
// empty report.
#include "check/check.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/scenario_spec.hpp"
#include "check/spec_system.hpp"
#include "engine/parallel_explorer.hpp"

namespace rcons::check {
namespace {

CheckRequest request_for(const std::string& line, Strategy strategy) {
  ScenarioSpec spec;
  std::vector<std::string> errors;
  parse_scenario_line(line, spec, errors);
  EXPECT_TRUE(errors.empty());
  CheckRequest request;
  request.system = build_spec_system(spec);
  request.budget.crash_model = spec.crash_model;
  request.budget.crash_budget = spec.crash_budget;
  request.strategy = strategy;
  request.num_threads = 4;
  request.sentinel_interval_ms = 5;
  return request;
}

constexpr Strategy kExhaustive[] = {Strategy::kSequentialDFS, Strategy::kParallelBFS,
                                    Strategy::kAuto};

const char* kSmall = "type=Sn(2) n=2 model=independent budget=2";
const char* kLarge = "type=Sn(4) n=4 model=independent budget=2";

void expect_typed_truncation(const CheckReport& report, sim::StopReason reason) {
  EXPECT_TRUE(report.stats.truncated);
  EXPECT_EQ(report.stats.stop_reason, reason);
  EXPECT_FALSE(report.complete);
  ASSERT_TRUE(report.violation.has_value());  // the truncation marker
  EXPECT_EQ(report.violation->property, sim::PropertyKind::kNone);
  EXPECT_FALSE(report.violation->description.empty());
}

TEST(RobustnessTest, StopReasonNamesAreStable) {
  EXPECT_STREQ(sim::stop_reason_name(sim::StopReason::kNone), "none");
  EXPECT_STREQ(sim::stop_reason_name(sim::StopReason::kVisitedCap), "visited-cap");
  EXPECT_STREQ(sim::stop_reason_name(sim::StopReason::kDeadline), "deadline");
  EXPECT_STREQ(sim::stop_reason_name(sim::StopReason::kMemory), "memory");
  EXPECT_STREQ(sim::stop_reason_name(sim::StopReason::kWatchdog), "watchdog");
  EXPECT_STREQ(sim::stop_reason_name(sim::StopReason::kForcedStop), "forced-stop");
}

TEST(RobustnessTest, NonPositiveVisitedBudgetStillReturnsATypedVerdict) {
  // The budget edge: max_visited <= 0 means "truncate immediately", and the
  // report must still be fully formed — typed reason, marker violation,
  // stats — not an empty or crashed run (Budget::visited_cap documents this).
  for (const std::int64_t cap : {std::int64_t{0}, std::int64_t{-5}}) {
    for (const Strategy strategy : kExhaustive) {
      CheckRequest request = request_for(kSmall, strategy);
      request.budget.max_visited = cap;
      const CheckReport report = check(std::move(request));
      SCOPED_TRACE("cap=" + std::to_string(cap) + " " + strategy_name(strategy));
      expect_typed_truncation(report, sim::StopReason::kVisitedCap);
    }
  }
}

TEST(RobustnessTest, VisitedCapTruncationIsTypedOnBothBackends) {
  for (const Strategy strategy : kExhaustive) {
    CheckRequest request = request_for(kSmall, strategy);
    request.budget.max_visited = 50;
    const CheckReport report = check(std::move(request));
    SCOPED_TRACE(strategy_name(strategy));
    expect_typed_truncation(report, sim::StopReason::kVisitedCap);
    EXPECT_GE(report.stats.visited, 50u);  // partial stats survive
  }
}

TEST(RobustnessTest, VisitedCapTruncatesAfterThePhaseSwitch) {
  // The cap lies past kAuto's DFS prefix (and below kLarge's state count),
  // so it trips while all four workers run.
  constexpr std::uint64_t kCap = engine::kAutoSequentialLimit + 1000;
  CheckRequest request = request_for(kLarge, Strategy::kAuto);
  request.budget.max_visited = static_cast<std::int64_t>(kCap);
  const CheckReport report = check(std::move(request));
  expect_typed_truncation(report, sim::StopReason::kVisitedCap);
  EXPECT_EQ(report.threads_used, 4);
  EXPECT_GE(report.stats.visited, kCap);
}

TEST(RobustnessTest, TimeLimitTruncatesParallelWithPartialStats) {
  CheckRequest request = request_for(kLarge, Strategy::kParallelBFS);
  request.budget.time_limit_ms = 1;
  const CheckReport report = check(std::move(request));
  expect_typed_truncation(report, sim::StopReason::kDeadline);
  EXPECT_GT(report.stats.visited, 0u);
  EXPECT_NE(report.violation->description.find("time limit"), std::string::npos);
}

TEST(RobustnessTest, TimeLimitTruncatesSequentialWithPartialStats) {
  CheckRequest request = request_for(kLarge, Strategy::kSequentialDFS);
  request.budget.time_limit_ms = 1;
  const CheckReport report = check(std::move(request));
  expect_typed_truncation(report, sim::StopReason::kDeadline);
  EXPECT_GT(report.stats.visited, 0u);
}

TEST(RobustnessTest, TimeLimitTruncatesAutoWithPartialStats) {
  CheckRequest request = request_for(kLarge, Strategy::kAuto);
  request.budget.time_limit_ms = 1;
  const CheckReport report = check(std::move(request));
  expect_typed_truncation(report, sim::StopReason::kDeadline);
  EXPECT_GT(report.stats.visited, 0u);
  EXPECT_NE(report.violation->description.find("time limit"), std::string::npos);
}

TEST(RobustnessTest, MemoryLimitTruncatesGracefully) {
  // 1 MiB is below any real process RSS, so the sentinel trips on its first
  // sample — deterministic without having to actually exhaust memory.
  for (const Strategy strategy : kExhaustive) {
    CheckRequest request = request_for(kLarge, strategy);
    request.budget.mem_limit_mb = 1;
    const CheckReport report = check(std::move(request));
    SCOPED_TRACE(strategy_name(strategy));
    expect_typed_truncation(report, sim::StopReason::kMemory);
  }
}

TEST(RobustnessTest, SentinelsOffLeaveVerdictsComplete) {
  // The default budget has no resource limits: a small clean scenario must
  // still come back complete and untruncated with the robustness layer built
  // in (zero-cost when unset).
  CheckRequest request = request_for(kSmall, Strategy::kParallelBFS);
  const CheckReport report = check(std::move(request));
  EXPECT_TRUE(report.clean);
  EXPECT_TRUE(report.complete);
  EXPECT_FALSE(report.stats.truncated);
  EXPECT_EQ(report.stats.stop_reason, sim::StopReason::kNone);
}

TEST(RobustnessTest, WatchdogNeverFlagsWorkersThatHaveNotStarted) {
  // A watchdog at its tightest cadence over a four-worker engine run that
  // never leaves the sequential phase: workers 1..3 never start, and an idle
  // worker is never a stall. Worker 0 itself can still be descheduled for two
  // intervals on a loaded machine; a report may then name it, and only it.
  const CheckRequest request = request_for(kLarge, Strategy::kSequentialDFS);
  engine::ParallelExplorerConfig config;
  static_cast<Budget&>(config) = request.budget;
  config.properties = request.system.properties;
  config.num_threads = 4;
  config.sequential_limit = engine::kSequentialOnly;
  config.watchdog_stall_intervals = 2;
  config.sentinel_interval_ms = 1;
  engine::ParallelExplorer explorer(request.system.memory, request.system.processes,
                                    config);
  const std::optional<sim::Violation> violation = explorer.run();
  const sim::ExplorerStats& stats = explorer.stats();
  if (stats.stop_reason == sim::StopReason::kWatchdog) {
    const std::string& dump = violation->description;
    EXPECT_NE(dump.find("worker 0:"), std::string::npos) << dump;
    for (const char* idle : {"worker 1:", "worker 2:", "worker 3:"}) {
      EXPECT_EQ(dump.find(idle), std::string::npos) << dump;
    }
    return;
  }
  EXPECT_FALSE(violation.has_value()) << violation->description;
  EXPECT_FALSE(stats.truncated);
  EXPECT_TRUE(explorer.stayed_sequential());
}

TEST(RobustnessTest, TimeLimitSpecFieldsReachTheBudget) {
  ScenarioSpec spec;
  std::vector<std::string> errors;
  parse_scenario_line("type=Sn(2) n=2 time_limit=250 mem_limit=512", spec, errors);
  ASSERT_TRUE(errors.empty());
  EXPECT_EQ(spec.time_limit_ms, 250);
  EXPECT_EQ(spec.mem_limit_mb, 512);
  // Round-trip through the formatter (the checkpoint label path).
  ScenarioSpec reparsed;
  parse_scenario_line(format_scenario_line(spec), reparsed, errors);
  ASSERT_TRUE(errors.empty());
  EXPECT_EQ(reparsed, spec);
}

TEST(RobustnessTest, ViolationKeepsItsTypedIdentityWithRobustnessLayerOn) {
  // A real property violation must keep its typed property — the truncation
  // marker (property kNone) and real violations stay distinguishable, which
  // is what the CLI's exit-code precedence is built on.
  CheckRequest request =
      request_for("type=register n=2 model=independent budget=0 "
                  "algo=naive-register",
                  Strategy::kParallelBFS);
  const CheckReport report = check(std::move(request));
  ASSERT_FALSE(report.clean);
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_NE(report.violation->property, sim::PropertyKind::kNone);
}

}  // namespace
}  // namespace rcons::check
