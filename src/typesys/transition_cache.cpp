#include "typesys/transition_cache.hpp"

#include <atomic>

#include "util/assert.hpp"

namespace rcons::typesys {

namespace {

std::atomic<std::uint64_t> next_uid{1};  // 0 marks an empty front entry

std::uint64_t memo_key(StateId s, OpId op) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(op));
}

// Per-thread, direct-mapped memo of recent apply_shared() results across
// every cache the thread uses. Zero-initialized, so no guard on first use.
struct FrontEntry {
  std::uint64_t uid;
  std::uint64_t key;
  StateId next;
  Value response;
};
constexpr int kFrontBits = 10;
thread_local FrontEntry front_table[std::size_t{1} << kFrontBits];

}  // namespace

TransitionCache::TransitionCache(const ObjectType& type, int num_processes)
    : type_(&type),
      num_processes_(num_processes),
      ops_(type.operations(num_processes)),
      uid_(next_uid.fetch_add(1, std::memory_order_relaxed)) {
  RCONS_ASSERT(num_processes >= 1);
  RCONS_ASSERT_MSG(!ops_.empty(), "type must offer at least one update operation");
  for (const StateRepr& q : type.initial_states(num_processes)) {
    initial_states_.push_back(space_.intern(q));
  }
  RCONS_ASSERT_MSG(!initial_states_.empty(), "type must offer a candidate initial state");
}

TransitionCache::TransitionCache(std::shared_ptr<const ObjectType> type,
                                 int num_processes)
    : TransitionCache(*type, num_processes) {
  owner_ = std::move(type);
}

TransitionCache::Step TransitionCache::apply(StateId s, OpId op) {
  RCONS_ASSERT(op >= 0 && op < num_ops());
  const std::uint64_t key = memo_key(s, op);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  Transition t = type_->apply(space_.repr(s), ops_[static_cast<std::size_t>(op)]);
  Step step{space_.intern(t.next), t.response};
  memo_.emplace(key, step);
  return step;
}

TransitionCache::Step TransitionCache::apply_shared(StateId s, OpId op) {
  const std::uint64_t key = memo_key(s, op);
  FrontEntry& front =
      front_table[((key + uid_ * 0x2545f4914f6cdd1dULL) * 0x9e3779b97f4a7c15ULL) >>
                  (64 - kFrontBits)];
  if (front.uid == uid_ && front.key == key) return Step{front.next, front.response};
  Step step;
  {
    std::lock_guard<std::mutex> lock(mu_);
    step = apply(s, op);
  }
  front = FrontEntry{uid_, key, step.next, step.response};
  return step;
}

}  // namespace rcons::typesys
