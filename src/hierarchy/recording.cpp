#include "hierarchy/recording.hpp"

#include "util/assert.hpp"

namespace rcons::hierarchy {

using typesys::StateId;
using typesys::TransitionCache;

std::string RecordingWitness::format(const TransitionCache& cache) const {
  return "q0=" + cache.type().format_state(cache.repr(q0)) + " " +
         assignment.format(cache) + " |Q_A|=" + std::to_string(q_a.size()) +
         " |Q_B|=" + std::to_string(q_b.size());
}

bool check_recording_assignment(ReachMemo& memo, StateId q0, const Assignment& assignment) {
  const StateBits& q_a = memo.q_set(q0, assignment, kTeamA);
  const StateBits& q_b = memo.q_set(q0, assignment, kTeamB);
  // Condition 1: Q_A ∩ Q_B = ∅.
  if (q_a.intersects(q_b)) return false;
  // Condition 2: q0 ∉ Q_A or |B| = 1.
  if (q_a.contains(q0) && assignment.team_size[kTeamB] != 1) return false;
  // Condition 3: q0 ∉ Q_B or |A| = 1.
  if (q_b.contains(q0) && assignment.team_size[kTeamA] != 1) return false;
  return true;
}

bool check_recording_assignment(TransitionCache& cache, StateId q0,
                                const Assignment& assignment) {
  ReachMemo memo(cache);
  return check_recording_assignment(memo, q0, assignment);
}

std::optional<RecordingWitness> find_recording_witness(TransitionCache& cache) {
  const int n = cache.num_processes();
  ReachMemo memo(cache);
  std::optional<RecordingWitness> witness;
  for_each_witness_candidate(cache, [&](StateId q0, const Assignment& assignment) {
    if (!check_recording_assignment(memo, q0, assignment)) return false;
    RecordingWitness w;
    w.n = n;
    w.q0 = q0;
    w.assignment = assignment;
    assignment.expand(w.team, w.ops);
    w.q_a = memo.q_set(q0, assignment, kTeamA).to_set();
    w.q_b = memo.q_set(q0, assignment, kTeamB).to_set();
    RCONS_ASSERT(static_cast<int>(w.team.size()) == n);
    witness = std::move(w);
    return true;
  });
  return witness;
}

bool is_recording(const typesys::ObjectType& type, int n) {
  TransitionCache cache(type, n);
  return find_recording_witness(cache).has_value();
}

}  // namespace rcons::hierarchy
