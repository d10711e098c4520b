// The real-thread implementations of Figure 2 and the tournament, under
// crash injection (CrashException unwinding + restart = the model's
// crash/recover loop).
#include "runtime/recoverable.hpp"

#include <gtest/gtest.h>

#include "hierarchy/recording.hpp"
#include "runtime/harness.hpp"
#include "typesys/zoo.hpp"

namespace rcons::runtime {
namespace {

std::unique_ptr<RTeamConsensus> make_rteam(const std::string& type_name, int n) {
  std::shared_ptr<const typesys::ObjectType> type = typesys::make_type(type_name);
  auto cache = std::make_shared<typesys::TransitionCache>(type, n);
  auto witness = hierarchy::find_recording_witness(*cache);
  RCONS_ASSERT(witness.has_value());
  auto plan = rc::TeamConsensusPlan::create(cache, *witness);
  auto table = nvram::ClosedTable::build(cache);
  return std::make_unique<RTeamConsensus>(plan, table);
}

TEST(RTeamConsensusTest, SoloDecideReturnsOwnInput) {
  auto tc = make_rteam("Sn(3)", 3);
  CrashInjector none = CrashInjector::none();
  const typesys::Value out = tc->decide(0, 41, none);
  EXPECT_EQ(out, 41);
}

TEST(RTeamConsensusTest, SecondTeamObservesFirstDecision) {
  auto tc = make_rteam("Sn(3)", 3);
  CrashInjector none = CrashInjector::none();
  const typesys::Value first = tc->decide(0, 10, none);
  // Roles 1, 2 are on the other team (one-vs-rest witness); they must agree.
  EXPECT_EQ(tc->decide(1, 20, none), first);
  EXPECT_EQ(tc->decide(2, 20, none), first);
}

TEST(RTeamConsensusTest, RerunAfterDecideIsStable) {
  auto tc = make_rteam("compare-and-swap", 3);
  CrashInjector none = CrashInjector::none();
  const typesys::Value first = tc->decide(0, 33, none);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(tc->decide(0, 33, none), first);  // post-crash re-runs
  }
}

TEST(RTeamConsensusTest, ThreadsAgreeUnderCrashInjection) {
  auto type = typesys::make_type("Sn(4)");
  auto cache = std::make_shared<typesys::TransitionCache>(*type, 4);
  auto witness = hierarchy::find_recording_witness(*cache);
  ASSERT_TRUE(witness.has_value());
  auto plan = rc::TeamConsensusPlan::create(cache, *witness);
  auto table = nvram::ClosedTable::build(cache);

  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    RTeamConsensus tc(plan, table);
    std::vector<typesys::Value> inputs;
    for (int role = 0; role < plan->n(); ++role) {
      inputs.push_back(plan->team[static_cast<std::size_t>(role)] == 0 ? 111 : 222);
    }
    const HarnessReport report = run_crashy_workers(
        plan->n(),
        [&](int role, CrashInjector& crash) {
          return tc.decide(role, inputs[static_cast<std::size_t>(role)], crash);
        },
        seed, /*crash_per_mille=*/120, /*max_crashes_per_worker=*/6);
    EXPECT_TRUE(report.agreement) << "seed " << seed;
    EXPECT_TRUE(report.valid_against(inputs)) << "seed " << seed;
  }
}

TEST(RTournamentTest, StructureAndSolo) {
  auto type = typesys::make_type("Sn(4)");
  RTournament tournament(*type, 4, 4);
  EXPECT_EQ(tournament.participants(), 4);
  EXPECT_EQ(tournament.instances(), 3);
  EXPECT_GE(tournament.depth(), 2);
  CrashInjector none = CrashInjector::none();
  EXPECT_EQ(tournament.decide(2, 55, none), 55);
}

TEST(RTournamentTest, ThreadsAgreeAcrossSeedsAndCrashRates) {
  auto type = typesys::make_type("Sn(6)");
  RTournament tournament(*type, 6, 6);
  const std::vector<typesys::Value> inputs = {1, 2, 3, 4, 5, 6};
  for (const int crash_per_mille : {0, 100, 400}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      tournament.reset();
      const HarnessReport report = run_crashy_workers(
          6,
          [&](int role, CrashInjector& crash) {
            return tournament.decide(role, inputs[static_cast<std::size_t>(role)],
                                     crash);
          },
          seed, crash_per_mille, /*max_crashes_per_worker=*/8);
      EXPECT_TRUE(report.agreement)
          << "seed " << seed << " crash_rate " << crash_per_mille;
      EXPECT_TRUE(report.valid_against(inputs)) << "seed " << seed;
      if (crash_per_mille == 0) {
        EXPECT_EQ(report.total_crashes, 0);
      }
    }
  }
}

TEST(RRaceConsensusTest, AgreesUnderHeavyCrashes) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RRaceConsensus race;
    const std::vector<typesys::Value> inputs = {7, 8, 9, 10};
    const HarnessReport report = run_crashy_workers(
        4,
        [&](int role, CrashInjector& crash) {
          return race.decide(inputs[static_cast<std::size_t>(role)], crash);
        },
        seed, /*crash_per_mille=*/500, /*max_crashes_per_worker=*/10);
    EXPECT_TRUE(report.agreement) << "seed " << seed;
    EXPECT_TRUE(report.valid_against(inputs)) << "seed " << seed;
  }
}

TEST(CrashInjectorTest, RespectsBudgetAndDeterminism) {
  CrashInjector a(7, 500, 3);
  int crashes = 0;
  for (int i = 0; i < 1000; ++i) {
    try {
      a.point();
    } catch (const CrashException&) {
      crashes += 1;
    }
  }
  EXPECT_EQ(crashes, 3);
  // Determinism: same seed, same crash positions.
  CrashInjector b1(99, 200, 100);
  CrashInjector b2(99, 200, 100);
  for (int i = 0; i < 200; ++i) {
    bool c1 = false, c2 = false;
    try {
      b1.point();
    } catch (const CrashException&) {
      c1 = true;
    }
    try {
      b2.point();
    } catch (const CrashException&) {
      c2 = true;
    }
    EXPECT_EQ(c1, c2) << "at point " << i;
  }
}

}  // namespace
}  // namespace rcons::runtime
