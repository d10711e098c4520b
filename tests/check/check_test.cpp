// The unified facade: one check(CheckRequest) entry point must route every
// strategy to its backend, report the strategy it actually used, and produce
// verdicts that agree across strategies on the same system.
#include "check/check.hpp"

#include <gtest/gtest.h>

#include "engine/parallel_explorer.hpp"
#include "rc/team_consensus.hpp"
#include "typesys/zoo.hpp"

namespace rcons::check {
namespace {

constexpr typesys::Value kInputA = 101;
constexpr typesys::Value kInputB = 202;

// Deliberately broken "consensus": write your input, decide what you read —
// register non-solvability, so every exhaustive backend must find an
// agreement violation even without crashes.
struct BrokenConsensus {
  sim::RegId reg = 0;
  typesys::Value input = 0;
  int pc = 0;

  sim::StepResult step(sim::Memory& memory) {
    if (pc == 0) {
      memory.write(reg, input);
      pc = 1;
      return sim::StepResult::running();
    }
    return sim::StepResult::decided(memory.read(reg));
  }
  void encode(std::vector<typesys::Value>& out) const { out.push_back(pc); }
  std::size_t decode(const typesys::Value* data, std::size_t) {
    pc = static_cast<int>(data[0]);
    return 1;
  }
};

struct ConstantDecider {
  typesys::Value value = 0;
  sim::StepResult step(sim::Memory&) { return sim::StepResult::decided(value); }
  void encode(std::vector<typesys::Value>& out) const { out.push_back(0); }
  std::size_t decode(const typesys::Value*, std::size_t) { return 1; }
};

CheckRequest broken_request() {
  CheckRequest request;
  const sim::RegId reg = request.system.memory.add_register();
  request.system.processes.emplace_back(BrokenConsensus{reg, 1, 0});
  request.system.processes.emplace_back(BrokenConsensus{reg, 2, 0});
  request.system.properties.valid_outputs = {1, 2};
  request.budget.crash_budget = 0;
  return request;
}

CheckRequest team_request(const std::string& type_name, int n, int crash_budget) {
  auto type = typesys::make_type(type_name);
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, n, kInputA, kInputB);
  CheckRequest request;
  request.system.memory = std::move(system.memory);
  request.system.processes = std::move(system.processes);
  request.system.properties.valid_outputs = {kInputA, kInputB};
  request.budget.crash_budget = crash_budget;
  return request;
}

TEST(CheckTest, SequentialDfsFindsViolationWithReplayableSchedule) {
  CheckRequest request = broken_request();
  request.strategy = Strategy::kSequentialDFS;
  const CheckReport report = check(std::move(request));
  EXPECT_EQ(report.strategy, Strategy::kSequentialDFS);
  EXPECT_FALSE(report.clean);
  EXPECT_TRUE(report.complete);  // a found violation is a definitive verdict
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_NE(report.violation->description.find("agreement"), std::string::npos);
  EXPECT_FALSE(report.violation->schedule.empty());
}

TEST(CheckTest, ParallelBfsAgreesWithSequential) {
  CheckRequest sequential_request = team_request("Sn(2)", 2, 3);
  sequential_request.strategy = Strategy::kSequentialDFS;
  const CheckReport sequential = check(std::move(sequential_request));

  CheckRequest parallel_request = team_request("Sn(2)", 2, 3);
  parallel_request.strategy = Strategy::kParallelBFS;
  parallel_request.num_threads = 4;
  const CheckReport parallel = check(std::move(parallel_request));

  EXPECT_EQ(parallel.strategy, Strategy::kParallelBFS);
  EXPECT_EQ(sequential.clean, parallel.clean);
  EXPECT_TRUE(parallel.complete);
  EXPECT_EQ(sequential.stats.visited, parallel.stats.visited);
  EXPECT_EQ(sequential.stats.transitions, parallel.stats.transitions);
}

TEST(CheckTest, AutoStaysSequentialOnSmallStateSpaces) {
  CheckRequest request = team_request("Sn(2)", 2, 2);
  request.strategy = Strategy::kAuto;
  const CheckReport report = check(std::move(request));
  EXPECT_EQ(report.strategy, Strategy::kSequentialDFS);
  EXPECT_TRUE(report.clean);
  EXPECT_TRUE(report.complete);
}

TEST(CheckTest, AutoSwitchesToParallelAfterSequentialLimit) {
  // The full state space (6,081 states) exceeds kAuto's DFS prefix, so the
  // other workers join mid-graph on the same store and frontier — and the
  // run must still deliver the complete verdict with the sequential DFS's
  // counts, interning no state twice.
  CheckRequest sequential_request = team_request("Sn(3)", 3, 2);
  sequential_request.strategy = Strategy::kSequentialDFS;
  const CheckReport sequential = check(std::move(sequential_request));
  ASSERT_GT(sequential.stats.visited, engine::kAutoSequentialLimit);
  EXPECT_EQ(sequential.threads_used, 1);

  for (const int threads : {2, 4}) {
    CheckRequest request = team_request("Sn(3)", 3, 2);
    request.strategy = Strategy::kAuto;
    request.num_threads = threads;
    const CheckReport report = check(std::move(request));
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(report.strategy, Strategy::kParallelBFS);
    EXPECT_EQ(report.threads_used, threads);
    EXPECT_TRUE(report.clean);
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.stats.visited, sequential.stats.visited);
    EXPECT_EQ(report.stats.transitions, sequential.stats.transitions);
    EXPECT_EQ(report.stats.decisions, sequential.stats.decisions);
    EXPECT_EQ(report.stats.terminal_states, sequential.stats.terminal_states);
    EXPECT_EQ(report.stats.store.nodes, report.stats.visited + 1);
  }
}

TEST(CheckTest, AutoRespectsRealBudgetTruncation) {
  // When max_visited itself is below the sequential limit, the DFS truncates
  // before the other workers would start.
  CheckRequest request = team_request("Sn(3)", 3, 2);
  request.strategy = Strategy::kAuto;
  request.budget.max_visited = 50;
  const CheckReport report = check(std::move(request));
  EXPECT_EQ(report.strategy, Strategy::kSequentialDFS);
  EXPECT_FALSE(report.complete);
  EXPECT_TRUE(report.stats.truncated);
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_NE(report.violation->description.find("max_visited"), std::string::npos);
}

TEST(CheckTest, RandomizedAggregatesRunsAndStaysIncompleteAsProof) {
  CheckRequest request = team_request("Sn(3)", 3, 2);
  request.strategy = Strategy::kRandomized;
  request.runs = 25;
  request.seed = 3;
  request.crash_per_mille = 200;
  const CheckReport report = check(std::move(request));
  EXPECT_EQ(report.strategy, Strategy::kRandomized);
  EXPECT_TRUE(report.clean);
  EXPECT_FALSE(report.complete);  // sampling proves nothing
  EXPECT_EQ(report.runs, 25);
  EXPECT_EQ(report.incomplete_runs, 0);
  EXPECT_GT(report.total_steps, 0);
}

TEST(CheckTest, RandomizedViolationCarriesReplayableSchedule) {
  CheckRequest request = broken_request();
  request.strategy = Strategy::kRandomized;
  request.runs = 50;  // the broken race is dirty enough to hit quickly
  const CheckReport report = check(std::move(request));
  ASSERT_FALSE(report.clean);
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_FALSE(report.violation->schedule.empty());

  // Round-trip: replay the recorded schedule through the facade.
  CheckRequest replay_request = broken_request();
  replay_request.strategy = Strategy::kReplay;
  replay_request.schedule = report.violation->schedule;
  const CheckReport replayed = check(std::move(replay_request));
  EXPECT_EQ(replayed.strategy, Strategy::kReplay);
  ASSERT_FALSE(replayed.clean);
  EXPECT_NE(replayed.violation->description.find("agreement"), std::string::npos);
}

TEST(CheckTest, ReplayReportsDecisionsAndOutputs) {
  CheckRequest request = broken_request();
  request.strategy = Strategy::kReplay;
  request.schedule = {sim::ScheduleEvent::step(0), sim::ScheduleEvent::step(1),
                      sim::ScheduleEvent::step(0), sim::ScheduleEvent::step(1)};
  const CheckReport report = check(std::move(request));
  EXPECT_TRUE(report.clean);  // p0 and p1 both read 2: agreement holds
  EXPECT_FALSE(report.complete);
  ASSERT_EQ(report.decisions.size(), 2u);
  EXPECT_EQ(report.decisions[0], 2);
  EXPECT_EQ(report.decisions[1], 2);
  EXPECT_EQ(report.outputs.size(), 2u);
}

TEST(CheckTest, SystemPropertySetIsTheOneSourceOfValidity) {
  // The old Budget.valid_outputs / system.valid_outputs dual fallback is
  // gone: the system's PropertySet owns the validity set, and tightening it
  // is a property-set edit, not a budget knob.
  CheckRequest request;
  request.system.processes.emplace_back(ConstantDecider{2});
  request.system.properties.valid_outputs = {1};  // 2 is not a valid output
  request.budget.crash_budget = 0;
  request.strategy = Strategy::kSequentialDFS;
  const CheckReport report = check(std::move(request));
  ASSERT_FALSE(report.clean);
  EXPECT_EQ(report.violation->property, sim::PropertyKind::kValidity);
  EXPECT_NE(report.violation->description.find("validity"), std::string::npos);
}

TEST(CheckTest, ReportsNodeStoreStats) {
  // Exhaustive strategies run on the interned node store, and the report
  // carries its stats.
  auto type = typesys::make_type("Sn(2)");
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, 2, kInputA, kInputB);
  CheckRequest request;
  request.system.memory = system.memory;
  request.system.processes = system.processes;
  request.system.properties.valid_outputs = {kInputA, kInputB};
  request.budget.crash_budget = 2;
  request.strategy = Strategy::kSequentialDFS;
  const CheckReport report = check(std::move(request));
  ASSERT_TRUE(report.clean);
  EXPECT_EQ(report.stats.store.nodes, report.stats.visited + 1);  // + root
  EXPECT_GT(report.stats.store.bytes_per_node(), 0.0);
  EXPECT_GT(report.stats.store.encodes, report.stats.visited);
  EXPECT_EQ(report.stats.store.canonical_hits, 0u);  // no declaration given
}

TEST(CheckTest, SymmetryDeclarationShrinksVisitedSetThroughFacade) {
  auto type = typesys::make_type("Sn(3)");
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, 3, kInputA, kInputB);

  auto request_for = [&](bool symmetric) {
    CheckRequest request;
    request.system.memory = system.memory;
    request.system.processes = system.processes;
    request.system.properties.valid_outputs = {kInputA, kInputB};
    if (symmetric) request.system.symmetry_classes = system.symmetry_classes;
    request.budget.crash_budget = 1;
    request.strategy = Strategy::kSequentialDFS;
    return request;
  };

  const CheckReport plain = check(request_for(false));
  const CheckReport reduced = check(request_for(true));
  ASSERT_TRUE(plain.clean);
  ASSERT_TRUE(reduced.clean);
  EXPECT_LE(reduced.stats.visited, plain.stats.visited);
  EXPECT_GT(reduced.stats.store.canonical_hit_rate(), 0.0);
}

TEST(CheckTest, ToyProgramsRunOnTheNodeStoreThroughFacade) {
  // A hand-written toy program (this test's BrokenConsensus) interns its
  // states like the real algorithms do.
  CheckRequest request;
  const sim::RegId reg = request.system.memory.add_register();
  request.system.processes.emplace_back(BrokenConsensus{reg, 1, 0});
  request.system.processes.emplace_back(BrokenConsensus{reg, 2, 0});
  request.system.properties.valid_outputs = {1, 2};
  request.budget.crash_budget = 0;
  request.strategy = Strategy::kParallelBFS;
  const CheckReport report = check(std::move(request));
  ASSERT_FALSE(report.clean);
  EXPECT_EQ(report.stats.store.nodes, report.stats.visited + 1);  // + root
}

TEST(CheckTest, WallTimeIsReported) {
  CheckRequest request = team_request("Sn(2)", 2, 1);
  const CheckReport report = check(std::move(request));
  EXPECT_GE(report.seconds, 0.0);
}

}  // namespace
}  // namespace rcons::check
