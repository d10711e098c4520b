// Cross-validates the memoized checkers against literal transcriptions of
// Definitions 2 and 4 (per-process bitmask enumeration), over every
// assignment of small instances. This is the property-based safety net for
// the checker optimizations (class symmetry, memoization).
//
// Each (type, n) drives one ReachMemo across every candidate initial state
// and assignment, in the order find_*_witness visits them, so later verdicts
// read sets that earlier assignments put in the memo.
#include "hierarchy/brute.hpp"

#include <gtest/gtest.h>

#include "hierarchy/discerning.hpp"
#include "hierarchy/recording.hpp"
#include "typesys/zoo.hpp"

namespace rcons::hierarchy {
namespace {

struct CrossCase {
  std::string type_name;
  int n;
};

std::vector<CrossCase> cases() {
  return {
      {"register", 2},     {"register", 3},      {"test-and-set", 2},
      {"test-and-set", 3}, {"swap", 2},          {"fetch-and-increment", 3},
      {"compare-and-swap", 3}, {"sticky-bit", 3}, {"consensus-object", 2},
      {"stack", 2},        {"stack", 3},         {"queue", 3},
      {"Sn(2)", 2},        {"Sn(3)", 3},         {"Sn(3)", 4},
      {"Sn(4)", 4},        {"Tn(4)", 3},         {"Tn(4)", 4},
      {"Tn(5)", 4},        {"max-register", 2},
      // Negative cells, where the search runs the whole enumeration.
      {"register", 5},     {"swap", 5},          {"max-register", 5},
      {"fetch-and-increment", 5}, {"test-and-set", 5},
  };
}

// Compares `check` (on one shared memo) with `brute` for every (q0,
// assignment) of the search order; returns how many pairs were compared.
template <typename Check, typename Brute>
long cross_check(const CrossCase& c, Check check, Brute brute) {
  auto type = typesys::make_type(c.type_name);
  EXPECT_NE(type, nullptr);
  if (type == nullptr) return 0;
  typesys::TransitionCache cache(*type, c.n);
  ReachMemo memo(cache);
  long checked = 0;
  for_each_witness_candidate(cache, [&](typesys::StateId q0, const Assignment& assignment) {
    std::vector<int> team;
    std::vector<typesys::OpId> ops;
    assignment.expand(team, ops);
    EXPECT_EQ(check(memo, q0, assignment), brute(cache, q0, team, ops))
        << c.type_name << " n=" << c.n << " q0=" << q0 << " " << assignment.format(cache);
    checked += 1;
    return false;  // keep enumerating
  });
  return checked;
}

class BruteCrossCheckTest : public ::testing::TestWithParam<CrossCase> {};

TEST_P(BruteCrossCheckTest, RecordingAgreesOnEveryAssignment) {
  const long checked = cross_check(
      GetParam(),
      [](ReachMemo& memo, typesys::StateId q0, const Assignment& assignment) {
        return check_recording_assignment(memo, q0, assignment);
      },
      brute_check_recording);
  EXPECT_GT(checked, 0);
}

TEST_P(BruteCrossCheckTest, DiscerningAgreesOnEveryAssignment) {
  const long checked = cross_check(
      GetParam(),
      [](ReachMemo& memo, typesys::StateId q0, const Assignment& assignment) {
        return check_discerning_assignment(memo, q0, assignment);
      },
      brute_check_discerning);
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Grid, BruteCrossCheckTest, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<CrossCase>& param_info) {
                           std::string name = param_info.param.type_name + "_n" +
                                              std::to_string(param_info.param.n);
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace rcons::hierarchy
