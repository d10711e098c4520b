#include "hierarchy/discerning.hpp"

#include <algorithm>

namespace rcons::hierarchy {

using typesys::StateId;
using typesys::TransitionCache;

std::string DiscerningWitness::format(const TransitionCache& cache) const {
  return "q0=" + cache.type().format_state(cache.repr(q0)) + " " +
         assignment.format(cache);
}

bool check_discerning_assignment(ReachMemo& memo, StateId q0, const Assignment& assignment) {
  // Definition 2 requires R_{A,j} ∩ R_{B,j} = ∅ for every process j; by class
  // symmetry it suffices to check one distinguished process per class.
  for (std::size_t c = 0; c < assignment.classes.size(); ++c) {
    const std::vector<StateBits>& r_a = memo.r_set(q0, assignment, c, kTeamA);
    const std::vector<StateBits>& r_b = memo.r_set(q0, assignment, c, kTeamB);
    for (std::size_t r = 0; r < std::min(r_a.size(), r_b.size()); ++r) {
      if (r_a[r].intersects(r_b[r])) return false;
    }
  }
  return true;
}

bool check_discerning_assignment(TransitionCache& cache, StateId q0,
                                 const Assignment& assignment) {
  ReachMemo memo(cache);
  return check_discerning_assignment(memo, q0, assignment);
}

std::optional<DiscerningWitness> find_discerning_witness(TransitionCache& cache) {
  ReachMemo memo(cache);
  std::optional<DiscerningWitness> witness;
  for_each_witness_candidate(cache, [&](StateId q0, const Assignment& assignment) {
    if (!check_discerning_assignment(memo, q0, assignment)) return false;
    witness = DiscerningWitness{q0, assignment};
    return true;
  });
  return witness;
}

bool is_discerning(const typesys::ObjectType& type, int n) {
  TransitionCache cache(type, n);
  return find_discerning_witness(cache).has_value();
}

}  // namespace rcons::hierarchy
