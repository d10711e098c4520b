// Team/operation assignments for Definition 2 (n-discerning) and
// Definition 4 (n-recording) witnesses.
//
// Both definitions quantify over a partition of n processes into two
// non-empty teams and an assignment of one candidate operation to each
// process. Processes with the same (team, operation) pair are
// interchangeable in both definitions — the reachable-state sets and
// response sets depend only on how many such processes exist — so the
// checkers enumerate multiset assignments ("classes" with counts) instead of
// the exponentially larger space of raw per-process assignments.
#ifndef RCONS_HIERARCHY_ASSIGNMENT_HPP
#define RCONS_HIERARCHY_ASSIGNMENT_HPP

#include <functional>
#include <string>
#include <vector>

#include "typesys/transition_cache.hpp"

namespace rcons::hierarchy {

inline constexpr int kTeamA = 0;
inline constexpr int kTeamB = 1;

// One equivalence class of processes: every process in the class is on
// `team` and is assigned candidate operation `op`.
struct ProcessClass {
  int team = kTeamA;
  typesys::OpId op = 0;
  int count = 0;
};

// A multiset assignment of n processes to (team, op) classes.
struct Assignment {
  std::vector<ProcessClass> classes;  // only classes with count > 0
  int team_size[2] = {0, 0};

  int num_processes() const { return team_size[0] + team_size[1]; }

  // Expands to per-process arrays (team[i], op[i]) in class order.
  void expand(std::vector<int>& team, std::vector<typesys::OpId>& ops) const;

  std::string format(const typesys::TransitionCache& cache) const;
};

// Invokes `visit` for every assignment of `n` processes to two non-empty
// teams with operations drawn from `num_ops` candidates. Returns early (and
// returns true) if `visit` returns true ("witness found").
bool for_each_assignment(int n, int num_ops,
                         const std::function<bool(const Assignment&)>& visit);

// Heuristic pre-pass: the handful of assignment shapes that witness every
// classic type (one-vs-rest with distinct or uniform operations, balanced
// two-op splits). Checking these first makes the common "property holds"
// case fast; the exhaustive enumeration remains the fallback that makes
// "property fails" verdicts exact.
bool for_each_likely_assignment(int n, int num_ops,
                                const std::function<bool(const Assignment&)>& visit);

// The witness searches' order over (q0, assignment) pairs: the likely shapes
// for every distinct candidate initial state of `cache`, then every
// assignment for each. Returns early (and returns true) once `visit` does.
bool for_each_witness_candidate(
    const typesys::TransitionCache& cache,
    const std::function<bool(typesys::StateId, const Assignment&)>& visit);

}  // namespace rcons::hierarchy

#endif  // RCONS_HIERARCHY_ASSIGNMENT_HPP
