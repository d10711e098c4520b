// The n-recording property (Definition 4) — this paper's characterization of
// readable types that solve n-process recoverable consensus with independent
// crashes (sufficient by Theorem 8; (n-1)-recording necessary by Theorem 14).
#ifndef RCONS_HIERARCHY_RECORDING_HPP
#define RCONS_HIERARCHY_RECORDING_HPP

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "hierarchy/assignment.hpp"
#include "hierarchy/qsets.hpp"
#include "typesys/transition_cache.hpp"

namespace rcons::hierarchy {

// A witness for Definition 4, expanded into the form the Figure 2 algorithm
// consumes: per-process teams/ops plus the materialized Q_A and Q_B sets used
// for the algorithm's "which team updated first?" membership tests.
struct RecordingWitness {
  int n = 0;
  typesys::StateId q0 = typesys::kNoState;
  Assignment assignment;
  std::vector<int> team;           // team[i] ∈ {kTeamA, kTeamB}
  std::vector<typesys::OpId> ops;  // ops[i]
  std::unordered_set<typesys::StateId> q_a;
  std::unordered_set<typesys::StateId> q_b;

  std::string format(const typesys::TransitionCache& cache) const;
};

// Checks whether a specific (q0, assignment) pair satisfies the three
// conditions of Definition 4, reading and extending `memo`'s sets.
bool check_recording_assignment(ReachMemo& memo, typesys::StateId q0,
                                const Assignment& assignment);

// The same check with a memo of its own.
bool check_recording_assignment(typesys::TransitionCache& cache, typesys::StateId q0,
                                const Assignment& assignment);

// Searches candidate initial states and multiset assignments (in
// for_each_witness_candidate order, with one memo for the whole search);
// returns a fully expanded witness iff the type is n-recording (relative to the candidate
// sets — exact for finite types; see DESIGN.md).
std::optional<RecordingWitness> find_recording_witness(typesys::TransitionCache& cache);

// Convenience entry point building its own cache.
bool is_recording(const typesys::ObjectType& type, int n);

}  // namespace rcons::hierarchy

#endif  // RCONS_HIERARCHY_RECORDING_HPP
