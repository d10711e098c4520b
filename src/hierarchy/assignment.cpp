#include "hierarchy/assignment.hpp"

#include <sstream>
#include <unordered_set>

#include "util/assert.hpp"

namespace rcons::hierarchy {

void Assignment::expand(std::vector<int>& team, std::vector<typesys::OpId>& ops) const {
  team.clear();
  ops.clear();
  for (const ProcessClass& cls : classes) {
    for (int i = 0; i < cls.count; ++i) {
      team.push_back(cls.team);
      ops.push_back(cls.op);
    }
  }
}

std::string Assignment::format(const typesys::TransitionCache& cache) const {
  std::ostringstream out;
  for (int t : {kTeamA, kTeamB}) {
    out << (t == kTeamA ? "A:{" : " B:{");
    bool first = true;
    for (const ProcessClass& cls : classes) {
      if (cls.team != t) continue;
      if (!first) out << ",";
      first = false;
      out << cls.count << "x" << cache.op(cls.op).name;
    }
    out << "}";
  }
  return out.str();
}

namespace {

// Recursively distributes the remaining process budget over cells
// (team-major, then op). Cells with zero count are omitted from the result.
bool enumerate_cells(int cell, int num_cells, int num_ops, int remaining,
                     Assignment& partial,
                     const std::function<bool(const Assignment&)>& visit) {
  if (cell == num_cells) {
    if (remaining != 0) return false;
    if (partial.team_size[0] == 0 || partial.team_size[1] == 0) return false;
    return visit(partial);
  }
  const int team = cell / num_ops;
  const typesys::OpId op = cell % num_ops;
  // Count 0 for this cell.
  if (enumerate_cells(cell + 1, num_cells, num_ops, remaining, partial, visit)) {
    return true;
  }
  for (int count = 1; count <= remaining; ++count) {
    partial.classes.push_back({team, op, count});
    partial.team_size[team] += count;
    const bool done =
        enumerate_cells(cell + 1, num_cells, num_ops, remaining - count, partial, visit);
    partial.team_size[team] -= count;
    partial.classes.pop_back();
    if (done) return true;
  }
  return false;
}

Assignment make_assignment(std::vector<ProcessClass> classes) {
  Assignment a;
  for (const ProcessClass& cls : classes) {
    if (cls.count == 0) continue;
    a.team_size[cls.team] += cls.count;
    a.classes.push_back(cls);
  }
  return a;
}

}  // namespace

bool for_each_assignment(int n, int num_ops,
                         const std::function<bool(const Assignment&)>& visit) {
  RCONS_ASSERT(n >= 2);
  RCONS_ASSERT(num_ops >= 1);
  Assignment partial;
  return enumerate_cells(0, 2 * num_ops, num_ops, n, partial, visit);
}

bool for_each_likely_assignment(int n, int num_ops,
                                const std::function<bool(const Assignment&)>& visit) {
  RCONS_ASSERT(n >= 2);
  // Shape 1: one process per distinct op where possible, split 1 vs rest.
  // (The CAS / sticky-bit / container witnesses.)
  if (num_ops >= n) {
    std::vector<ProcessClass> classes;
    classes.push_back({kTeamA, 0, 1});
    for (int i = 1; i < n; ++i) classes.push_back({kTeamB, i, 1});
    if (visit(make_assignment(std::move(classes)))) return true;
  }
  // Shape 2: 1-vs-rest and rest-vs-1 with uniform ops per team, all op pairs.
  // (The S_n witness: A = {p1} with opA, B = everyone else with opB.)
  for (int op_a = 0; op_a < num_ops; ++op_a) {
    for (int op_b = 0; op_b < num_ops; ++op_b) {
      if (visit(make_assignment({{kTeamA, op_a, 1}, {kTeamB, op_b, n - 1}}))) return true;
      if (n >= 3 &&
          visit(make_assignment({{kTeamA, op_a, n - 1}, {kTeamB, op_b, 1}}))) {
        return true;
      }
    }
  }
  // Shape 3: balanced split with uniform ops per team, all op pairs.
  // (The T_n discerning witness: |A| = ⌊n/2⌋ with opA, |B| = ⌈n/2⌉ with opB.)
  if (n >= 4) {
    for (int op_a = 0; op_a < num_ops; ++op_a) {
      for (int op_b = 0; op_b < num_ops; ++op_b) {
        if (visit(make_assignment({{kTeamA, op_a, n / 2}, {kTeamB, op_b, n - n / 2}}))) {
          return true;
        }
      }
    }
  }
  return false;
}

bool for_each_witness_candidate(
    const typesys::TransitionCache& cache,
    const std::function<bool(typesys::StateId, const Assignment&)>& visit) {
  const int n = cache.num_processes();
  // De-duplicate candidate initial states (types may legitimately repeat).
  std::vector<typesys::StateId> candidates;
  std::unordered_set<typesys::StateId> seen;
  for (const typesys::StateId q0 : cache.initial_states()) {
    if (seen.insert(q0).second) candidates.push_back(q0);
  }
  for (const typesys::StateId q0 : candidates) {
    if (for_each_likely_assignment(n, cache.num_ops(), [&](const Assignment& assignment) {
          return visit(q0, assignment);
        })) {
      return true;
    }
  }
  for (const typesys::StateId q0 : candidates) {
    if (for_each_assignment(n, cache.num_ops(), [&](const Assignment& assignment) {
          return visit(q0, assignment);
        })) {
      return true;
    }
  }
  return false;
}

}  // namespace rcons::hierarchy
