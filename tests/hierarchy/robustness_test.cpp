// Theorem 22 probes: a set of readable types used together solves RC for at
// most max individual level + 1. We test the product-object proxy: the
// recording level of T1×T2 (one object of each type fused, operations acting
// componentwise) never exceeds max(level(T1), level(T2)) + 1.
#include "hierarchy/product.hpp"

#include <gtest/gtest.h>

#include "hierarchy/brute.hpp"
#include "hierarchy/discerning.hpp"
#include "hierarchy/levels.hpp"
#include "hierarchy/recording.hpp"
#include "typesys/zoo.hpp"

namespace rcons::hierarchy {
namespace {

struct PairCase {
  std::string first;
  std::string second;
};

std::vector<PairCase> pairs() {
  return {
      {"test-and-set", "test-and-set"},
      {"test-and-set", "register"},
      {"swap", "fetch-and-increment"},
      {"register", "register"},
      {"test-and-set", "Sn(3)"},
      {"Sn(3)", "Sn(3)"},
  };
}

class ProductRobustnessTest : public ::testing::TestWithParam<PairCase> {};

TEST_P(ProductRobustnessTest, RecordingGainsAtMostOneLevel) {
  auto t1 = typesys::make_type(GetParam().first);
  auto t2 = typesys::make_type(GetParam().second);
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  const Level l1 = max_recording_level(*t1, 5);
  const Level l2 = max_recording_level(*t2, 5);
  ASSERT_FALSE(l1.capped);
  ASSERT_FALSE(l2.capped);
  ProductType product(typesys::make_type(GetParam().first),
                      typesys::make_type(GetParam().second));
  const Level lp = max_recording_level(product, 5);
  ASSERT_FALSE(lp.capped);
  EXPECT_LE(lp.level, std::max(l1.level, l2.level) + 1)
      << GetParam().first << " x " << GetParam().second;
  // And combining can never hurt.
  EXPECT_GE(lp.level, std::max(l1.level, l2.level));
}

TEST_P(ProductRobustnessTest, DiscerningRobustAcrossPairs) {
  // Ruppert's robustness for readable types: cons(T1×T2) = max(cons).
  auto t1 = typesys::make_type(GetParam().first);
  auto t2 = typesys::make_type(GetParam().second);
  const Level l1 = max_discerning_level(*t1, 5);
  const Level l2 = max_discerning_level(*t2, 5);
  ASSERT_FALSE(l1.capped);
  ASSERT_FALSE(l2.capped);
  ProductType product(typesys::make_type(GetParam().first),
                      typesys::make_type(GetParam().second));
  const Level lp = max_discerning_level(product, 5);
  ASSERT_FALSE(lp.capped);
  EXPECT_EQ(lp.level, std::max(l1.level, l2.level))
      << GetParam().first << " x " << GetParam().second;
}

INSTANTIATE_TEST_SUITE_P(Pairs, ProductRobustnessTest, ::testing::ValuesIn(pairs()),
                         [](const ::testing::TestParamInfo<PairCase>& param_info) {
                           std::string name = param_info.param.first + "_x_" + param_info.param.second;
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

TEST(ProductTypeTest, ComponentsEvolveIndependently) {
  ProductType product(typesys::make_type("test-and-set"), typesys::make_type("register"));
  const auto ops = product.operations(2);
  // TAS ops first, then register writes, suffixed by component.
  ASSERT_GE(ops.size(), 3u);
  EXPECT_EQ(ops[0].name, "TestAndSet@1");
  const auto initial = product.initial_states(2);
  ASSERT_FALSE(initial.empty());
  const auto after = product.apply(initial.front(), ops[0]);
  // Applying the TAS op must not disturb the register component.
  const auto again = product.apply(after.next, ops[0]);
  EXPECT_EQ(again.response, 1);  // TAS already set
}

// The checkers' memo packs (state id, op-multiset code, op_j) into a 64-bit
// key. The code ranks the multisets of at most n operations over the type's
// operations, C(n + num_ops, num_ops) of them, and the state id takes the
// bits left over.
TEST(ReachMemoKeyTest, EveryZooTypeFitsAtSixteenProcesses) {
  // One process against fifteen, all on op 0: few states, full-width codes.
  Assignment assignment;
  assignment.classes = {{kTeamA, 0, 1}, {kTeamB, 0, 15}};
  assignment.team_size[kTeamA] = 1;
  assignment.team_size[kTeamB] = 15;
  for (const typesys::ZooEntry& entry : typesys::make_zoo(5)) {
    typesys::TransitionCache cache(*entry.type, 16);
    ReachMemo memo(cache);
    const typesys::StateId q0 = cache.initial_states().front();
    EXPECT_FALSE(memo.q_set(q0, assignment, kTeamA).to_set().empty()) << entry.type->name();
    EXPECT_FALSE(memo.q_set(q0, assignment, kTeamB).to_set().empty()) << entry.type->name();
  }
}

TEST(ReachMemoKeyTest, WitnessSearchesRunPastEightProcesses) {
  // n operations at n processes: at n=12, C(24, 12) codes need 22 bits and
  // op_j 4, leaving 38 for the state id.
  for (const char* name : {"compare-and-swap", "consensus-object"}) {
    auto type = typesys::make_type(name);
    for (const int n : {9, 12}) {
      typesys::TransitionCache cache(*type, n);
      EXPECT_TRUE(find_recording_witness(cache).has_value()) << name << " n=" << n;
      EXPECT_TRUE(find_discerning_witness(cache).has_value()) << name << " n=" << n;
    }
  }
}

TEST(ReachMemoKeyTest, RegisterPastEightProcessesMatchesBrute) {
  auto reg = typesys::make_type("register");
  typesys::TransitionCache cache(*reg, 9);
  ReachMemo memo(cache);
  Assignment assignment;
  assignment.classes = {{kTeamA, 0, 1}, {kTeamB, 1, 4}, {kTeamB, 2, 4}};
  assignment.team_size[kTeamA] = 1;
  assignment.team_size[kTeamB] = 8;
  std::vector<int> team;
  std::vector<typesys::OpId> ops;
  assignment.expand(team, ops);
  const typesys::StateId q0 = cache.initial_states().front();
  EXPECT_EQ(check_recording_assignment(memo, q0, assignment),
            brute_check_recording(cache, q0, team, ops));
  EXPECT_EQ(check_discerning_assignment(memo, q0, assignment),
            brute_check_discerning(cache, q0, team, ops));
}

TEST(ReachMemoKeyDeathTest, KeyWiderThan64BitsStopsConstruction) {
  auto reg = typesys::make_type("register");
  // n=31: C(62, 31) codes need 59 bits and op_j 5, 64 in all.
  typesys::TransitionCache cache31(*reg, 31);
  EXPECT_DEATH(ReachMemo{cache31}, "leave no bits");
  // n=40: C(80, 40) > 2^64, so the codes themselves overflow.
  typesys::TransitionCache cache40(*reg, 40);
  EXPECT_DEATH(ReachMemo{cache40}, "overflow 64 bits");
  EXPECT_DEATH(is_recording(*reg, 40), "overflow 64 bits");
}

}  // namespace
}  // namespace rcons::hierarchy
