// Interning table mapping canonical state encodings to dense ids.
#ifndef RCONS_TYPESYS_STATE_SPACE_HPP
#define RCONS_TYPESYS_STATE_SPACE_HPP

#include <unordered_map>
#include <vector>

#include "typesys/core.hpp"
#include "util/hash.hpp"

namespace rcons::typesys {

// Assigns dense StateIds to state encodings on first sight. The hierarchy
// checkers and the simulator both run on StateIds so their hot loops compare
// and hash fixed-size integers instead of vectors.
//
// Each encoding is stored once, as a key of the node-based map; the id-indexed
// table points at those keys, which stay put when the map rehashes. So a
// StateSpace can move but not copy.
class StateSpace {
 public:
  StateSpace() = default;
  StateSpace(const StateSpace&) = delete;
  StateSpace& operator=(const StateSpace&) = delete;
  StateSpace(StateSpace&&) = default;
  StateSpace& operator=(StateSpace&&) = default;

  // Returns the id for `repr`, interning it if new.
  StateId intern(const StateRepr& repr);

  // The encoding for an id previously returned by intern().
  const StateRepr& repr(StateId id) const;

  std::size_t size() const { return reprs_.size(); }

 private:
  std::unordered_map<StateRepr, StateId, util::VecHash> ids_;
  std::vector<const StateRepr*> reprs_;  // reprs_[id] is ids_'s key for id
};

}  // namespace rcons::typesys

#endif  // RCONS_TYPESYS_STATE_SPACE_HPP
