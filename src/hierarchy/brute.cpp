#include "hierarchy/brute.hpp"

#include <unordered_set>

#include "hierarchy/qsets.hpp"
#include "util/assert.hpp"

namespace rcons::hierarchy {

using typesys::OpId;
using typesys::StateId;
using typesys::TransitionCache;

namespace {

// Walks every sequence of distinct process indices from q0 (depth-first over
// bitmasks), invoking `visit(first, state, mask, responses)` after each
// applied operation. `responses[i]` is the response p_i's operation returned,
// meaningful where mask includes i.
template <typename Visit>
void walk(TransitionCache& cache, StateId q0, const std::vector<OpId>& ops,
          Visit&& visit) {
  const int n = static_cast<int>(ops.size());
  struct Node {
    StateId state;
    unsigned mask;
    int first;
    std::vector<typesys::Value> responses;
  };
  std::vector<Node> stack;
  for (int i = 0; i < n; ++i) {
    const auto step = cache.apply(q0, ops[static_cast<std::size_t>(i)]);
    std::vector<typesys::Value> responses(static_cast<std::size_t>(n), 0);
    responses[static_cast<std::size_t>(i)] = step.response;
    visit(i, step.next, 1u << i, responses);
    stack.push_back(Node{step.next, 1u << i, i, std::move(responses)});
  }
  while (!stack.empty()) {
    Node node = std::move(stack.back());
    stack.pop_back();
    for (int i = 0; i < n; ++i) {
      if (node.mask & (1u << i)) continue;
      const auto step = cache.apply(node.state, ops[static_cast<std::size_t>(i)]);
      std::vector<typesys::Value> responses = node.responses;
      responses[static_cast<std::size_t>(i)] = step.response;
      const unsigned mask = node.mask | (1u << i);
      visit(node.first, step.next, mask, responses);
      stack.push_back(Node{step.next, mask, node.first, std::move(responses)});
    }
  }
}

}  // namespace

bool brute_check_recording(TransitionCache& cache, StateId q0,
                           const std::vector<int>& team, const std::vector<OpId>& ops) {
  RCONS_ASSERT(team.size() == ops.size());
  int team_size[2] = {0, 0};
  for (const int t : team) team_size[t] += 1;
  RCONS_ASSERT(team_size[0] >= 1 && team_size[1] >= 1);

  std::unordered_set<StateId> q_by_team[2];
  walk(cache, q0, ops,
       [&](int first, StateId state, unsigned /*mask*/,
           const std::vector<typesys::Value>& /*responses*/) {
         q_by_team[team[static_cast<std::size_t>(first)]].insert(state);
       });
  for (const StateId q : q_by_team[kTeamA]) {
    if (q_by_team[kTeamB].contains(q)) return false;  // condition 1
  }
  if (q_by_team[kTeamA].contains(q0) && team_size[kTeamB] != 1) return false;  // cond 2
  if (q_by_team[kTeamB].contains(q0) && team_size[kTeamA] != 1) return false;  // cond 3
  return true;
}

bool brute_check_discerning(TransitionCache& cache, StateId q0,
                            const std::vector<int>& team, const std::vector<OpId>& ops) {
  RCONS_ASSERT(team.size() == ops.size());
  const int n = static_cast<int>(ops.size());
  // r_sets[X][j]: the literal R_{X,j} as (response, final state) pairs.
  std::vector<RespStateSet> r_sets[2];
  r_sets[0].resize(static_cast<std::size_t>(n));
  r_sets[1].resize(static_cast<std::size_t>(n));

  walk(cache, q0, ops,
       [&](int first, StateId state, unsigned mask,
           const std::vector<typesys::Value>& responses) {
         const int x = team[static_cast<std::size_t>(first)];
         for (int j = 0; j < n; ++j) {
           if (!(mask & (1u << j))) continue;
           r_sets[x][static_cast<std::size_t>(j)].insert(
               RespState{responses[static_cast<std::size_t>(j)], state});
         }
       });
  for (int j = 0; j < n; ++j) {
    for (const RespState& pair : r_sets[kTeamA][static_cast<std::size_t>(j)]) {
      if (r_sets[kTeamB][static_cast<std::size_t>(j)].contains(pair)) return false;
    }
  }
  return true;
}

}  // namespace rcons::hierarchy
