// The n-discerning property (Definition 2) — Ruppert's characterization of
// deterministic readable types that solve n-process wait-free consensus
// (Theorem 3: a readable type solves n-process consensus iff n-discerning).
#ifndef RCONS_HIERARCHY_DISCERNING_HPP
#define RCONS_HIERARCHY_DISCERNING_HPP

#include <optional>
#include <string>

#include "hierarchy/assignment.hpp"
#include "hierarchy/qsets.hpp"
#include "typesys/transition_cache.hpp"

namespace rcons::hierarchy {

// A witness for Definition 2: an initial state q0 and a team/op assignment
// under which R_{A,j} ∩ R_{B,j} = ∅ for every process j.
struct DiscerningWitness {
  typesys::StateId q0 = typesys::kNoState;
  Assignment assignment;

  std::string format(const typesys::TransitionCache& cache) const;
};

// Checks whether a specific (q0, assignment) pair satisfies Definition 2,
// reading and extending `memo`'s sets.
bool check_discerning_assignment(ReachMemo& memo, typesys::StateId q0,
                                 const Assignment& assignment);

// The same check with a memo of its own.
bool check_discerning_assignment(typesys::TransitionCache& cache, typesys::StateId q0,
                                 const Assignment& assignment);

// Searches all candidate initial states and multiset assignments (in
// for_each_witness_candidate order, with one memo for the whole search);
// returns a witness iff the type is n-discerning (relative to the type's
// candidate operation/state sets — exact for finite types; see DESIGN.md).
std::optional<DiscerningWitness> find_discerning_witness(typesys::TransitionCache& cache);

// Convenience entry point building its own cache.
bool is_discerning(const typesys::ObjectType& type, int n);

}  // namespace rcons::hierarchy

#endif  // RCONS_HIERARCHY_DISCERNING_HPP
