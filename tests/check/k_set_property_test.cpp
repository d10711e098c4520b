// The acceptance pair for the typed property layer, driven from spec grammar
// (examples/scenarios/k_set.spec): over the same weak type (Sn(2), 2- but not
// 3-recording), the algo=k-set system is provably clean for
// (2,3)-set agreement while its plain-consensus check violates agreement —
// and all four non-auto strategies (kSequentialDFS, kParallelBFS, kRandomized,
// kReplay) report that violation with the identical typed property.
#include <gtest/gtest.h>

#include <string>

#include "check/check.hpp"
#include "check/minimize.hpp"
#include "check/scenario_spec.hpp"
#include "check/spec_system.hpp"
#include "check/violation_io.hpp"

namespace rcons::check {
namespace {

ScenarioParse load_pair() {
  return load_scenario_file(std::string(RCONS_SOURCE_DIR) +
                            "/examples/scenarios/k_set.spec");
}

CheckRequest request_for(const ScenarioSpec& spec, Strategy strategy) {
  CheckRequest request;
  request.system = build_spec_system(spec);
  request.budget.crash_model = spec.crash_model;
  request.budget.crash_budget = spec.crash_budget;
  request.strategy = strategy;
  return request;
}

TEST(KSetPropertyTest, SpecFileParsesToTheCleanViolatingPair) {
  const ScenarioParse parse = load_pair();
  ASSERT_TRUE(parse.ok()) << parse.errors.front();
  ASSERT_EQ(parse.specs.size(), 2u);
  EXPECT_EQ(parse.specs[0].algo, ScenarioAlgo::kKSetTeamConsensus);
  EXPECT_EQ(parse.specs[0].k, 2);
  EXPECT_EQ(parse.specs[0].properties,
            (std::vector<sim::PropertyKind>{sim::PropertyKind::kKSetAgreement,
                                            sim::PropertyKind::kValidity,
                                            sim::PropertyKind::kWaitFreedom}));
  EXPECT_EQ(parse.specs[1].properties.front(), sim::PropertyKind::kAgreement);

  // The built system carries the typed set: k-set agreement with k=2.
  const ScenarioSystem clean_system = build_spec_system(parse.specs[0]);
  EXPECT_EQ(clean_system.properties.agreement_k(), 2);
  EXPECT_FALSE(clean_system.properties.valid_outputs.empty());
}

TEST(KSetPropertyTest, KSetScenarioIsProvablyCleanOnBothExhaustiveBackends) {
  const ScenarioParse parse = load_pair();
  ASSERT_TRUE(parse.ok());
  const ScenarioSpec& clean_spec = parse.specs[0];

  const CheckReport dfs = check(request_for(clean_spec, Strategy::kSequentialDFS));
  EXPECT_TRUE(dfs.clean) << dfs.violation->description;
  EXPECT_TRUE(dfs.complete);

  CheckRequest parallel = request_for(clean_spec, Strategy::kParallelBFS);
  parallel.num_threads = 4;
  const CheckReport bfs = check(std::move(parallel));
  EXPECT_TRUE(bfs.clean) << bfs.violation->description;
  EXPECT_TRUE(bfs.complete);
  EXPECT_EQ(bfs.stats.visited, dfs.stats.visited);
}

TEST(KSetPropertyTest, AllFourBackendsReportTheIdenticalTypedAgreementViolation) {
  const ScenarioParse parse = load_pair();
  ASSERT_TRUE(parse.ok());
  const ScenarioSpec& violating_spec = parse.specs[1];

  // Sequential DFS: the deterministic first violation.
  const CheckReport dfs = check(request_for(violating_spec, Strategy::kSequentialDFS));
  ASSERT_FALSE(dfs.clean);
  ASSERT_TRUE(dfs.violation.has_value());
  EXPECT_EQ(dfs.violation->property, sim::PropertyKind::kAgreement);
  EXPECT_EQ(dfs.violation->property_param, 1);

  // Parallel BFS: the lexicographically lowest violation — same typed
  // property, and (both being deterministic orders over the same graph) the
  // identical description and schedule here.
  CheckRequest parallel = request_for(violating_spec, Strategy::kParallelBFS);
  parallel.num_threads = 4;
  const CheckReport bfs = check(std::move(parallel));
  ASSERT_FALSE(bfs.clean);
  EXPECT_EQ(bfs.violation->property, sim::PropertyKind::kAgreement);

  // Randomized: sampled schedules hit the same typed property.
  CheckRequest random = request_for(violating_spec, Strategy::kRandomized);
  random.runs = 200;
  random.seed = 7;
  const CheckReport sampled = check(std::move(random));
  ASSERT_FALSE(sampled.clean);
  EXPECT_EQ(sampled.violation->property, sim::PropertyKind::kAgreement);

  // Replay: both explorer schedules reproduce their exact violation —
  // property AND description — through the fourth backend.
  for (const CheckReport* found : {&dfs, &bfs}) {
    CheckRequest replay = request_for(violating_spec, Strategy::kReplay);
    replay.schedule = found->violation->schedule;
    const CheckReport replayed = check(std::move(replay));
    ASSERT_FALSE(replayed.clean);
    EXPECT_EQ(replayed.violation->property, sim::PropertyKind::kAgreement);
    EXPECT_EQ(replayed.violation->description, found->violation->description);
  }

  // And the randomized schedule reproduces its typed property too.
  CheckRequest replay = request_for(violating_spec, Strategy::kReplay);
  replay.schedule = sampled.violation->schedule;
  const CheckReport replayed = check(std::move(replay));
  ASSERT_FALSE(replayed.clean);
  EXPECT_EQ(replayed.violation->property, sim::PropertyKind::kAgreement);
  EXPECT_EQ(replayed.violation->description, sampled.violation->description);
}

TEST(KSetPropertyTest, TypedPropertySurvivesMinimizeAndViolationFiles) {
  const ScenarioParse parse = load_pair();
  ASSERT_TRUE(parse.ok());
  const ScenarioSpec& violating_spec = parse.specs[1];
  const CheckReport dfs = check(request_for(violating_spec, Strategy::kSequentialDFS));
  ASSERT_FALSE(dfs.clean);

  // The k-set consensus counterexample: both groups decide different values
  // — the shortest such schedule is tiny, and the property tag must survive.
  const ScenarioSystem pristine = build_spec_system(violating_spec);
  Budget budget;
  budget.crash_budget = violating_spec.crash_budget;
  const MinimizeResult minimized = minimize(pristine, budget, *dfs.violation);
  EXPECT_EQ(minimized.violation.property, sim::PropertyKind::kAgreement);
  EXPECT_LE(minimized.violation.schedule.size(), dfs.violation->schedule.size());

  ViolationFile file;
  file.scenario = violating_spec;
  file.property = minimized.violation.property;
  file.property_param = minimized.violation.property_param;
  file.description = minimized.violation.description;
  file.schedule = minimized.violation.schedule;
  const ViolationParse round_trip = parse_violation_file(format_violation_file(file));
  ASSERT_TRUE(round_trip.ok()) << round_trip.errors.front();
  EXPECT_EQ(round_trip.file->property, sim::PropertyKind::kAgreement);
  EXPECT_EQ(round_trip.file->scenario, violating_spec);
}

}  // namespace
}  // namespace rcons::check
