#include "typesys/state_space.hpp"

#include "util/assert.hpp"

namespace rcons::typesys {

StateId StateSpace::intern(const StateRepr& repr) {
  auto [it, inserted] = ids_.try_emplace(repr, static_cast<StateId>(reprs_.size()));
  if (inserted) reprs_.push_back(&it->first);
  return it->second;
}

const StateRepr& StateSpace::repr(StateId id) const {
  RCONS_ASSERT(id >= 0 && static_cast<std::size_t>(id) < reprs_.size());
  return *reprs_[static_cast<std::size_t>(id)];
}

}  // namespace rcons::typesys
