// Machine-checks every implication edge of Figure 1 over the whole type zoo
// and all feasible n — the repository's E1 experiment.
//
//   n-recording ⇒ n-discerning                 (Observation 5)
//   n-recording ⇒ (n-1)-recording, n ≥ 3       (Observation 6)
//   n-discerning ⇒ (n-1)-discerning, n ≥ 3     (folklore analogue)
//   n-discerning ⇒ (n-2)-recording, n ≥ 4      (Theorem 16)
//   3-discerning ⇒ 2-recording                 (Proposition 18)
#include <gtest/gtest.h>

#include <string>

#include "hierarchy/discerning.hpp"
#include "hierarchy/recording.hpp"
#include "typesys/zoo.hpp"

namespace rcons::hierarchy {
namespace {

struct GridCase {
  std::string type_name;
  int n;
};

std::vector<GridCase> grid() {
  std::vector<GridCase> cases;
  for (const typesys::ZooEntry& entry : typesys::make_zoo(5)) {
    for (int n = 2; n <= 6; ++n) {
      cases.push_back({entry.type->name(), n});
    }
  }
  return cases;
}

class Figure1Test : public ::testing::TestWithParam<GridCase> {
 protected:
  bool recording(int n) const {
    return is_recording(*typesys::make_type(GetParam().type_name), n);
  }
  bool discerning(int n) const {
    return is_discerning(*typesys::make_type(GetParam().type_name), n);
  }
};

TEST_P(Figure1Test, Observation5RecordingImpliesDiscerning) {
  const int n = GetParam().n;
  if (recording(n)) {
    EXPECT_TRUE(discerning(n)) << GetParam().type_name << " n=" << n;
  }
}

TEST_P(Figure1Test, Observation6RecordingIsDownwardClosed) {
  const int n = GetParam().n;
  if (n >= 3 && recording(n)) {
    EXPECT_TRUE(recording(n - 1)) << GetParam().type_name << " n=" << n;
  }
}

TEST_P(Figure1Test, DiscerningIsDownwardClosed) {
  const int n = GetParam().n;
  if (n >= 3 && discerning(n)) {
    EXPECT_TRUE(discerning(n - 1)) << GetParam().type_name << " n=" << n;
  }
}

TEST_P(Figure1Test, Theorem16DiscerningImpliesRecordingTwoBelow) {
  const int n = GetParam().n;
  if (n >= 4 && discerning(n)) {
    EXPECT_TRUE(recording(n - 2)) << GetParam().type_name << " n=" << n;
  }
}

TEST_P(Figure1Test, Proposition18ThreeDiscerningImpliesTwoRecording) {
  if (GetParam().n != 3) GTEST_SKIP();
  if (discerning(3)) {
    EXPECT_TRUE(recording(2)) << GetParam().type_name;
  }
}

INSTANTIATE_TEST_SUITE_P(ZooGrid, Figure1Test, ::testing::ValuesIn(grid()),
                         [](const ::testing::TestParamInfo<GridCase>& param_info) {
                           std::string name =
                               param_info.param.type_name + "_n" + std::to_string(param_info.param.n);
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

TEST(Figure1SeparationsTest, TnSeparatesTheHierarchies) {
  // The gap edges of Figure 1 are strict: T_n is n-discerning yet not
  // (n-1)-recording, so "n-discerning ⇒ (n-2)-recording" cannot be improved
  // (Proposition 19).
  for (int n = 4; n <= 7; ++n) {
    auto tn = typesys::make_type("Tn(" + std::to_string(n) + ")");
    EXPECT_TRUE(is_discerning(*tn, n));
    EXPECT_FALSE(is_recording(*tn, n - 1));
    EXPECT_TRUE(is_recording(*tn, n - 2));
  }
}

}  // namespace
}  // namespace rcons::hierarchy
