// Hand-computed Q_X and R_{X,j} sets for concrete witnesses, checked against
// the memoized computation.
#include "hierarchy/qsets.hpp"

#include <gtest/gtest.h>

#include "typesys/types/register.hpp"
#include "typesys/types/rmw.hpp"
#include "typesys/types/sn.hpp"

namespace rcons::hierarchy {
namespace {

using typesys::kBottom;
using typesys::StateId;
using typesys::TransitionCache;

Assignment one_vs_rest(int op_a, int op_b, int n) {
  Assignment a;
  a.classes.push_back({kTeamA, op_a, 1});
  a.classes.push_back({kTeamB, op_b, n - 1});
  a.team_size[0] = 1;
  a.team_size[1] = n - 1;
  return a;
}

TEST(QSetTest, SnWitnessSetsMatchPaper) {
  // Proposition 21's witness: q0 = (B,0), A = {p1} with opA, B = rest with
  // opB. Then Q_A = {(A, r)} for r = 0..n-1 and Q_B = {(B, r)} for all r.
  const int n = 4;
  typesys::SnType sn(n);
  TransitionCache cache(sn, n);
  const StateId q0 = cache.intern({typesys::SnType::kWinnerB, 0});
  const Assignment assignment = one_vs_rest(/*opA=*/0, /*opB=*/1, n);

  ReachMemo memo(cache);
  const auto q_a = memo.q_set(q0, assignment, kTeamA).to_set();
  const auto q_b = memo.q_set(q0, assignment, kTeamB).to_set();

  EXPECT_EQ(q_a.size(), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    EXPECT_TRUE(q_a.contains(cache.intern({typesys::SnType::kWinnerA, r}))) << r;
  }
  // Q_B contains (B, r) for every row reachable by ≤ n-1 opB's plus the
  // opA-reset path — including q0 itself (which is why condition 3 needs
  // |A| = 1 for this witness).
  EXPECT_TRUE(q_b.contains(q0));
  for (const StateId q : q_a) EXPECT_FALSE(q_b.contains(q));
}

TEST(QSetTest, RegisterQSetsOverlap) {
  // Writes overwrite: both teams can drive the register to the same state.
  typesys::RegisterType reg;
  TransitionCache cache(reg, 2);
  const StateId q0 = cache.intern({kBottom});
  const Assignment assignment = one_vs_rest(0, 1, 2);
  ReachMemo memo(cache);
  const auto q_a = memo.q_set(q0, assignment, kTeamA).to_set();
  const auto q_b = memo.q_set(q0, assignment, kTeamB).to_set();
  bool overlap = false;
  for (const StateId q : q_a) overlap = overlap || q_b.contains(q);
  EXPECT_TRUE(overlap);
}

TEST(QSetTest, CasQSetsDisjoint) {
  typesys::CompareAndSwapType cas;
  TransitionCache cache(cas, 3);
  const StateId q0 = cache.intern({kBottom});
  Assignment assignment;
  assignment.classes.push_back({kTeamA, 0, 1});  // CAS(⊥,1)
  assignment.classes.push_back({kTeamB, 1, 1});  // CAS(⊥,2)
  assignment.classes.push_back({kTeamB, 2, 1});  // CAS(⊥,3)
  assignment.team_size[0] = 1;
  assignment.team_size[1] = 2;
  ReachMemo memo(cache);
  const auto q_a = memo.q_set(q0, assignment, kTeamA).to_set();
  const auto q_b = memo.q_set(q0, assignment, kTeamB).to_set();
  EXPECT_EQ(q_a.size(), 1u);  // only state {1}
  EXPECT_EQ(q_b.size(), 2u);  // states {2}, {3}
  for (const StateId q : q_a) EXPECT_FALSE(q_b.contains(q));
  EXPECT_FALSE(q_a.contains(q0));
  EXPECT_FALSE(q_b.contains(q0));
}

TEST(RSetTest, TestAndSetResponsesDiscern) {
  // For TAS with q0 = 0: R_{A,1} pairs have response 0 (p1 first) while
  // R_{B,1} pairs have response 1 (p2 went first) — disjoint, hence
  // 2-discerning.
  typesys::TestAndSetType tas;
  TransitionCache cache(tas, 2);
  const StateId q0 = cache.intern({0});
  Assignment assignment = one_vs_rest(0, 0, 2);
  const RespStateSet r_a = r_set_pairs(cache, q0, assignment, /*cls=*/0, kTeamA);
  const RespStateSet r_b = r_set_pairs(cache, q0, assignment, /*cls=*/0, kTeamB);
  EXPECT_FALSE(r_a.empty());
  EXPECT_FALSE(r_b.empty());
  for (const RespState& pair : r_a) EXPECT_FALSE(r_b.contains(pair));
}

TEST(RSetTest, PairsVariantDecodesResponses) {
  typesys::TestAndSetType tas;
  TransitionCache cache(tas, 2);
  const StateId q0 = cache.intern({0});
  Assignment assignment = one_vs_rest(0, 0, 2);
  const RespStateSet r_a = r_set_pairs(cache, q0, assignment, 0, kTeamA);
  const StateId set_state = cache.intern({1});
  // p1 first: responds 0; object ends set regardless of p2's participation.
  EXPECT_TRUE(r_a.contains(RespState{0, set_state}));
  EXPECT_FALSE(r_a.contains(RespState{1, set_state}));
}

TEST(RSetTest, FirstMoverTeamConstraintRespected) {
  // With team A = {p1} assigned Stick(0), any R_{A,*} pair must stem from
  // Stick(0) first: every reachable state from then on stores 0.
  typesys::StickyBitType sticky;
  TransitionCache cache(sticky, 2);
  const StateId q0 = cache.intern({kBottom});
  Assignment assignment = one_vs_rest(/*Stick(0)=*/0, /*Stick(1)=*/1, 2);
  const RespStateSet r_a = r_set_pairs(cache, q0, assignment, 0, kTeamA);
  const StateId zero = cache.intern({0});
  for (const RespState& pair : r_a) {
    EXPECT_EQ(pair.state, zero);
    EXPECT_EQ(pair.response, 0);
  }
}

}  // namespace
}  // namespace rcons::hierarchy
