// Reachable-state and response-state sets underlying the paper's two
// characterizations.
//
// Q_X(q0, op_1, …, op_n)  (Definition 4 notation): the set of states q such
// that some sequence of operations by *distinct* processes, whose first
// performer is on team X, takes an object from q0 to q.
//
// R_{X,j}  (Definition 2 notation): the set of (response, state) pairs (r, q)
// such that some sequence of operations by distinct processes including p_j,
// whose first performer is on team X, takes the object from q0 to q while
// p_j's operation returns r.
//
// Team labels matter only for the first move. After it, what is reachable
// depends on the object state and on the multiset of operations whose
// processes have not moved yet. With M the multiset of all n processes'
// operations and M' the multiset without p_j's:
//
//   Closure(s, M)    = {s} ∪ ⋃_{op ∈ M} Closure(δ(s, op), M − op)
//   Q_X              = ⋃_{team-X class c} Closure(δ(q0, op_c), M − op_c)
//   R'(s, M', op_j)  = {(resp(s, op_j), q) : q ∈ Closure(δ(s, op_j), M')}
//                      ∪ ⋃_{op ∈ M'} R'(δ(s, op), M' − op, op_j)
//   R_{X,j}          = (p_j on team X: the R' pairs of p_j moving first)
//                      ∪ ⋃_{team-X process p_c ≠ p_j}
//                            R'(δ(q0, op_c), M' − op_c, op_j)
//
// ReachMemo memoizes Closure and R' on (state, op-multiset[, op_j]) keys.
// Those keys recur across the thousands of (q0, assignment) pairs one
// witness search visits, so a search shares one memo across all of them.
#ifndef RCONS_HIERARCHY_QSETS_HPP
#define RCONS_HIERARCHY_QSETS_HPP

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "hierarchy/assignment.hpp"
#include "typesys/transition_cache.hpp"

namespace rcons::hierarchy {

// Interns response values as dense ids, so R-sets for teams A and B of the
// same process class are comparable.
class ResponseIntern {
 public:
  int intern(typesys::Value response);

  // Interned values by id.
  const std::vector<typesys::Value>& values() const { return values_; }

 private:
  std::unordered_map<typesys::Value, int> ids_;
  std::vector<typesys::Value> values_;
};

// A set of StateIds as a bitset: bit s%64 of word s/64.
class StateBits {
 public:
  bool contains(typesys::StateId s) const;
  bool intersects(const StateBits& other) const;
  std::unordered_set<typesys::StateId> to_set() const;

  void clear() { words_.clear(); }
  void unite(std::span<const std::uint64_t> states);  // a list of state ids

 private:
  std::vector<std::uint64_t> words_;
};

// The Closure / R' memo of one witness search over one TransitionCache.
//
// Every state set is a sorted list of state ids, so it costs its size however
// large the type's state space; every R' value is a sorted list of (response
// id, state set) pairs. Both live in one word pool in which identical
// contents are stored once, indexed by flat open-addressing tables. Only the
// q_set() / r_set() results are bitsets.
//
// Keys pack (state id, op-multiset code, op_j) into 64 bits. The code ranks
// the multisets of at most n operations over num_ops operations, which number
// C(n + num_ops, num_ops); the state id takes the bits left over.
// Construction stops with an assertion when the code and op_j leave no room
// for a state id, and a lookup stops with one when a state id outgrows its
// field.
//
// Between two queries, a memo grown past kBudgetBytes is emptied, so a
// search over a large state space holds about one query's sets at a time.
class ReachMemo {
 public:
  explicit ReachMemo(typesys::TransitionCache& cache);

  ReachMemo(const ReachMemo&) = delete;
  ReachMemo& operator=(const ReachMemo&) = delete;

  // Q_X for team `team` (kTeamA or kTeamB). The result is valid until the
  // next q_set() call for the same team.
  const StateBits& q_set(typesys::StateId q0, const Assignment& assignment, int team);

  // R_{X,c}: the R-set of a distinguished process of class `cls_index` when
  // the first mover must belong to `team`, as one state set per response id
  // (see response()). Valid until the next r_set() call for the same team.
  const std::vector<StateBits>& r_set(typesys::StateId q0, const Assignment& assignment,
                                      std::size_t cls_index, int team);

  // The raw response value behind a response id of r_set().
  typesys::Value response(int id) const {
    return responses_.values()[static_cast<std::size_t>(id)];
  }

 private:
  using BlobId = std::uint32_t;

  // Empties the index and the pool once they hold more than kBudgetBytes.
  // Response ids stay, so the two teams' r_set() results still line up.
  static constexpr std::size_t kBudgetBytes = std::size_t{64} << 20;
  void trim();

  // Closure and R' of `s` over the remaining multiset held in counts_,
  // which the recursion decrements and restores around each move.
  void load(const Assignment& assignment);
  BlobId closure(typesys::StateId s, int depth);
  BlobId r_prime(typesys::StateId s, typesys::OpId op_j, int depth);

  // Packed-key index over (s, code of counts_, op). op == num_ops_ keys a
  // Closure entry, any other op an R' entry with that op_j. recall() returns
  // the stored blob or kNoBlob; find_slot() the slot holding `key`, or the
  // empty slot where it belongs.
  std::uint64_t pack_key(typesys::StateId s, typesys::OpId op) const;
  BlobId recall(std::uint64_t key) const;
  std::size_t find_slot(std::uint64_t key) const;
  void remember(std::uint64_t key, BlobId value);

  // Hash-consed word pool. intern_set() sorts and de-duplicates states_
  // before interning it.
  std::span<const std::uint64_t> blob(BlobId id) const;
  BlobId intern_blob(std::span<const std::uint64_t> words);
  BlobId intern_set();

  typesys::TransitionCache& cache_;
  int num_processes_;
  int num_ops_;
  std::vector<int> counts_;  // remaining processes per op
  // rank_[op * (n+1) + p] = C(p + op, op + 1): the code of a multiset sums
  // it over every op, p counting the processes on ops 0..op.
  std::vector<std::uint64_t> rank_;
  int op_bits_;
  int code_bits_;
  std::uint64_t state_limit_;  // state ids below it fit the key

  std::vector<std::uint64_t> keys_;
  std::vector<BlobId> values_;  // kNoBlob marks an empty slot
  std::size_t entries_ = 0;

  std::vector<std::uint64_t> pool_;
  std::vector<std::uint32_t> offsets_{0};  // blob i is pool_[offsets_[i], offsets_[i+1])
  std::vector<BlobId> blob_slots_;         // open addressing over blob contents

  ResponseIntern responses_;
  std::vector<std::vector<BlobId>> children_;  // per recursion depth
  std::vector<std::uint64_t> states_;          // merge scratch
  std::vector<std::uint64_t> pairs_;           // merge scratch
  std::vector<std::uint64_t> merged_;          // merge scratch
  StateBits q_[2];
  std::vector<StateBits> r_[2];
};

// R-set entry: raw response value plus final object state. Used by the
// Theorem 3 consensus algorithm, which tests (response, state) membership at
// runtime, and by the brute-force reference checker.
struct RespState {
  typesys::Value response = 0;
  typesys::StateId state = typesys::kNoState;
  bool operator==(const RespState&) const = default;
};
struct RespStateHash {
  std::size_t operator()(const RespState& p) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(p.response) * 0x9e3779b97f4a7c15ULL) ^
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.state)));
  }
};
using RespStateSet = std::unordered_set<RespState, RespStateHash>;

// R_{X,c} with raw (response, state) pairs.
RespStateSet r_set_pairs(typesys::TransitionCache& cache, typesys::StateId q0,
                         const Assignment& assignment, std::size_t cls_index, int team);

}  // namespace rcons::hierarchy

#endif  // RCONS_HIERARCHY_QSETS_HPP
