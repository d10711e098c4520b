// Memoized transition function over interned states.
#ifndef RCONS_TYPESYS_TRANSITION_CACHE_HPP
#define RCONS_TYPESYS_TRANSITION_CACHE_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "typesys/object_type.hpp"
#include "typesys/state_space.hpp"

namespace rcons::typesys {

// Binds an ObjectType to a fixed n-process candidate operation list and
// memoizes apply() over interned states. Both the hierarchy checkers and the
// simulator share one cache per (type, n) so each distinct (state, op)
// transition is computed by the sequential specification exactly once.
class TransitionCache {
 public:
  struct Step {
    StateId next = kNoState;
    Value response = kAck;
  };

  // Non-owning: the caller must keep `type` alive for the cache's lifetime.
  TransitionCache(const ObjectType& type, int num_processes);

  // Shared ownership: safe when the type is created ad hoc (e.g. from
  // zoo::make_type) and the cache outlives the creating scope.
  TransitionCache(std::shared_ptr<const ObjectType> type, int num_processes);

  const ObjectType& type() const { return *type_; }
  int num_processes() const { return num_processes_; }

  int num_ops() const { return static_cast<int>(ops_.size()); }
  const Operation& op(OpId id) const { return ops_[static_cast<std::size_t>(id)]; }

  // Candidate initial states, pre-interned.
  const std::vector<StateId>& initial_states() const { return initial_states_; }

  StateId intern(const StateRepr& repr) { return space_.intern(repr); }
  const StateRepr& repr(StateId id) const { return space_.repr(id); }
  std::size_t discovered_states() const { return space_.size(); }

  // Applies candidate operation `op` to interned state `s` (memoized).
  // Like every member but apply_shared(), for one thread at a time.
  Step apply(StateId s, OpId op);

  // apply() for several threads at once: the exploration engine's workers
  // step copies of one sim::Memory, whose objects share their cache.
  // Repeats come from a per-thread front table; a lock is taken only for a
  // transition the calling thread has not seen. No other member may run
  // concurrently with it.
  Step apply_shared(StateId s, OpId op);

 private:
  std::shared_ptr<const ObjectType> owner_;  // may be null (non-owning mode)
  const ObjectType* type_;
  int num_processes_;
  std::vector<Operation> ops_;
  std::vector<StateId> initial_states_;
  StateSpace space_;
  // Never reused, so a per-thread front-table entry cannot outlive its cache
  // and match a later one at the same address.
  const std::uint64_t uid_;
  std::mutex mu_;  // serializes apply_shared() callers over space_ and memo_
  std::unordered_map<std::uint64_t, Step> memo_;
};

}  // namespace rcons::typesys

#endif  // RCONS_TYPESYS_TRANSITION_CACHE_HPP
