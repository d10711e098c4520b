#include "rc/k_set.hpp"

#include <map>
#include <memory>
#include <utility>

#include "hierarchy/recording.hpp"
#include "typesys/transition_cache.hpp"
#include "util/assert.hpp"

namespace rcons::rc {

using typesys::Value;

KSetTeamSystem make_k_set_team_consensus(std::shared_ptr<const typesys::ObjectType> type,
                                         int k, int n) {
  RCONS_ASSERT_MSG(k >= 1, "k-set agreement needs k >= 1");
  RCONS_ASSERT_MSG(n >= k, "every group must be non-empty (k <= n)");

  KSetTeamSystem system;
  system.groups = k;
  system.inputs.assign(static_cast<std::size_t>(n), 0);

  // One witness/plan per distinct group size (the witness search is the
  // expensive part; same-size groups share it and differ only in the
  // instance each installs).
  std::map<int, std::shared_ptr<const TeamConsensusPlan>> plans;
  const auto plan_for = [&](int size) {
    auto& plan = plans[size];
    if (plan == nullptr) {
      auto cache = std::make_shared<typesys::TransitionCache>(type, size);
      auto witness = hierarchy::find_recording_witness(*cache);
      RCONS_ASSERT_MSG(witness.has_value(),
                       "type is not recording at some group size");
      plan = TeamConsensusPlan::create(std::move(cache), *witness);
    }
    return plan;
  };

  using Chain = std::vector<Stage<TeamConsensusInstance>>;
  std::vector<std::shared_ptr<const Chain>> chains(static_cast<std::size_t>(n));

  for (int g = 0; g < k; ++g) {
    std::vector<int> members;
    for (int i = g; i < n; i += k) members.push_back(i);
    const Value base = 100 * (g + 1);

    if (members.size() == 1) {
      // Singleton group: an empty stage chain decides the input outright.
      const auto p = static_cast<std::size_t>(members.front());
      system.inputs[p] = base + 1;
      chains[p] = std::make_shared<const Chain>();
      continue;
    }

    auto plan = plan_for(static_cast<int>(members.size()));
    const TeamConsensusInstance instance =
        install_team_consensus(system.memory, plan);
    for (std::size_t role = 0; role < members.size(); ++role) {
      const auto p = static_cast<std::size_t>(members[role]);
      const int team = plan->team[role];
      system.inputs[p] = base + (team == hierarchy::kTeamA ? 1 : 2);
      chains[p] = std::make_shared<const Chain>(
          Chain{Stage<TeamConsensusInstance>{instance, static_cast<int>(role)}});
    }
  }

  system.symmetry_classes = staged_symmetry_classes(
      chains, system.inputs, team_op_role_sig<TeamConsensusInstance>);
  for (std::size_t p = 0; p < chains.size(); ++p) {
    system.processes.emplace_back(RcTournamentProgram(chains[p], system.inputs[p]));
  }
  return system;
}

}  // namespace rcons::rc
