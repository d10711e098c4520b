// Differential test of the production explorers against the full-record
// reference explorer (tests/support/reference_explorer.hpp). With symmetry
// reduction off, sim::Explorer and engine::ParallelExplorer at t=1 and t=4
// must traverse the *identical* deduplicated graph as the reference — same
// visited / transition / decision / terminal counts and the same verdict —
// and sim::Explorer, which shares the reference's DFS event order and
// first-path dedup, must report the same violating schedule. With symmetry
// reduction on, the visited set may only shrink (never grow) and the verdict
// must be preserved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <optional>
#include <string>
#include <vector>

#include "engine/parallel_explorer.hpp"
#include "rc/naive_register.hpp"
#include "rc/team_consensus.hpp"
#include "sim/explorer.hpp"
#include "support/reference_explorer.hpp"
#include "typesys/zoo.hpp"

namespace rcons::engine {
namespace {

using test::OnViolation;
using test::ReferenceExplorer;
using test::ReferenceResult;

constexpr typesys::Value kInputA = 101;
constexpr typesys::Value kInputB = 202;
constexpr int kThreadCounts[] = {1, 4};

struct Outcome {
  std::optional<sim::Violation> violation;
  sim::ExplorerStats stats;
};

struct System {
  sim::Memory memory;
  std::vector<sim::Process> processes;
  std::vector<int> symmetry_classes;
};

ReferenceResult run_reference(const System& system, const sim::ExplorerConfig& config,
                              OnViolation mode) {
  return ReferenceExplorer(config, mode).run(system.memory, system.processes);
}

Outcome run_sequential(const System& system, const sim::ExplorerConfig& config) {
  sim::Explorer explorer(system.memory, system.processes, config);
  Outcome outcome;
  outcome.violation = explorer.run();
  outcome.stats = explorer.stats();
  return outcome;
}

Outcome run_parallel(const System& system, const sim::ExplorerConfig& base,
                     int threads) {
  ParallelExplorerConfig config;
  static_cast<sim::ExplorerConfig&>(config) = base;
  config.num_threads = threads;
  ParallelExplorer explorer(system.memory, system.processes, config);
  Outcome outcome;
  outcome.violation = explorer.run();
  outcome.stats = explorer.stats();
  return outcome;
}

void expect_identical_graph(const ReferenceResult& reference, const Outcome& outcome,
                            const std::string& label) {
  EXPECT_EQ(reference.violation.has_value(), outcome.violation.has_value()) << label;
  EXPECT_FALSE(outcome.stats.truncated) << label;
  EXPECT_EQ(reference.visited, outcome.stats.visited) << label;
  EXPECT_EQ(reference.transitions, outcome.stats.transitions) << label;
  EXPECT_EQ(reference.decisions, outcome.stats.decisions) << label;
  EXPECT_EQ(reference.terminal_states, outcome.stats.terminal_states) << label;
  // Every interned record is a visited state or the root; with no symmetry
  // declared nothing is ever permuted.
  EXPECT_EQ(outcome.stats.store.nodes, outcome.stats.visited + 1) << label;
  EXPECT_EQ(outcome.stats.store.canonical_hits, 0u) << label;
  if (reference.violation.has_value() && outcome.violation.has_value()) {
    EXPECT_EQ(reference.violation->property, outcome.violation->property) << label;
  }
}

// sim::Explorer against the stop-at-first-violation reference, then the
// parallel engine at every thread count against the draining reference.
void expect_explorers_match_reference(const System& system,
                                      const sim::ExplorerConfig& config) {
  const ReferenceResult first = run_reference(system, config, OnViolation::kStop);
  const Outcome sequential = run_sequential(system, config);
  expect_identical_graph(first, sequential, "sequential");
  if (first.violation.has_value() && sequential.violation.has_value()) {
    EXPECT_EQ(first.violation->description, sequential.violation->description);
    EXPECT_EQ(first.violation->schedule, sequential.violation->schedule);
  }

  const ReferenceResult drained = run_reference(system, config, OnViolation::kDrain);
  for (const int threads : kThreadCounts) {
    expect_identical_graph(drained, run_parallel(system, config, threads),
                           "parallel t=" + std::to_string(threads));
  }
}

System team_consensus_system(const std::string& type_name, int n) {
  auto type = typesys::make_type(type_name);
  EXPECT_NE(type, nullptr) << type_name;
  rc::TeamConsensusSystem built =
      rc::make_team_consensus_system(*type, n, kInputA, kInputB);
  return System{std::move(built.memory), std::move(built.processes),
                std::move(built.symmetry_classes)};
}

sim::ExplorerConfig team_config(int crash_budget, sim::CrashModel crash_model) {
  sim::ExplorerConfig config;
  config.crash_model = crash_model;
  config.crash_budget = crash_budget;
  config.properties.valid_outputs = {kInputA, kInputB};
  return config;
}

struct SeedCase {
  std::string type_name;
  int n;
  int crash_budget;
  sim::CrashModel crash_model;
};

class DifferentialSeedTest : public ::testing::TestWithParam<SeedCase> {};

TEST_P(DifferentialSeedTest, ExplorersMatchTheFullRecordReference) {
  const SeedCase& c = GetParam();
  const System system = team_consensus_system(c.type_name, c.n);
  const sim::ExplorerConfig config = team_config(c.crash_budget, c.crash_model);
  ASSERT_FALSE(run_reference(system, config, OnViolation::kStop).violation.has_value());
  expect_explorers_match_reference(system, config);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DifferentialSeedTest,
    ::testing::Values(SeedCase{"Sn(2)", 2, 3, sim::CrashModel::kIndependent},
                      SeedCase{"Sn(3)", 3, 2, sim::CrashModel::kIndependent},
                      SeedCase{"sticky-bit", 3, 2, sim::CrashModel::kSimultaneous},
                      SeedCase{"Tn(4)", 2, 3, sim::CrashModel::kIndependent}),
    [](const ::testing::TestParamInfo<SeedCase>& info) {
      std::string name = info.param.type_name + "_n" + std::to_string(info.param.n) +
                         "_c" + std::to_string(info.param.crash_budget) +
                         (info.param.crash_model == sim::CrashModel::kIndependent
                              ? "_ind"
                              : "_sim");
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(DifferentialTest, ViolatingSystemMatchesTheReference) {
  // The naive register race: every explorer must find a violation, the
  // sequential one on the reference's exact schedule, and the parallel
  // engine — which drains the graph instead of stopping — on the reference's
  // full violation-free graph.
  rc::NaiveRegisterSystem built = rc::make_naive_register_system(2);
  const System system{std::move(built.memory), std::move(built.processes), {}};

  sim::ExplorerConfig config;
  config.crash_budget = 1;
  config.properties.valid_outputs = built.inputs;

  const ReferenceResult reference = run_reference(system, config, OnViolation::kDrain);
  ASSERT_TRUE(reference.violation.has_value());
  EXPECT_GT(reference.violation_edges, 0u);
  expect_explorers_match_reference(system, config);
}

TEST(DifferentialTest, CanonicalizationOnlyShrinksTheVisitedSet) {
  // Sn(4) n=4 with one independent crash is the pinned instance: 38837
  // states plain, 8987 with its symmetry declaration.
  for (const char* type_name : {"Sn(3)", "Sn(4)"}) {
    const int n = type_name == std::string("Sn(3)") ? 3 : 4;
    const System system = team_consensus_system(type_name, n);
    ASSERT_FALSE(system.symmetry_classes.empty());

    const sim::ExplorerConfig config = team_config(1, sim::CrashModel::kIndependent);
    const ReferenceResult reference = run_reference(system, config, OnViolation::kStop);
    if (n == 4) {
      EXPECT_EQ(reference.visited, 38837u);
    }

    sim::ExplorerConfig with_symmetry = config;
    with_symmetry.symmetry_classes = system.symmetry_classes;
    const Outcome on = run_sequential(system, with_symmetry);

    EXPECT_EQ(reference.violation.has_value(), on.violation.has_value()) << type_name;
    EXPECT_LE(on.stats.visited, reference.visited) << type_name;
    if (n == 4) {
      EXPECT_EQ(on.stats.visited, 8987u);
    }

    // The declaration only helps when some class has >= 2 members; when it
    // does, team consensus has genuinely symmetric reachable states.
    std::vector<int> counts(system.symmetry_classes.size(), 0);
    int largest = 0;
    for (const int cls : system.symmetry_classes) {
      largest = std::max(largest, ++counts[static_cast<std::size_t>(cls)]);
    }
    if (largest >= 2) {
      EXPECT_LT(on.stats.visited, reference.visited) << type_name;
      EXPECT_GT(on.stats.store.canonical_hits, 0u) << type_name;
    }

    // The parallel engine agrees with the sequential explorer under
    // canonicalization too.
    for (const int threads : kThreadCounts) {
      const Outcome parallel = run_parallel(system, with_symmetry, threads);
      EXPECT_EQ(parallel.violation.has_value(), on.violation.has_value()) << type_name;
      EXPECT_EQ(parallel.stats.visited, on.stats.visited) << type_name;
    }
  }
}

}  // namespace
}  // namespace rcons::engine
