#include "hierarchy/qsets.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace rcons::hierarchy {

using typesys::OpId;
using typesys::StateId;
using typesys::TransitionCache;

namespace {

constexpr std::uint32_t kNoBlob = std::numeric_limits<std::uint32_t>::max();

std::uint64_t hash_words(std::span<const std::uint64_t> words) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL ^ words.size();
  for (const std::uint64_t w : words) h = util::hash_combine(h, w);
  return h;
}

// (response id, state-set blob) entry of an R' list.
std::uint64_t pack_pair(int response, std::uint32_t set) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(response)) << 32) | set;
}
int pair_response(std::uint64_t pair) { return static_cast<int>(pair >> 32); }
std::uint32_t pair_set(std::uint64_t pair) { return static_cast<std::uint32_t>(pair); }

}  // namespace

int ResponseIntern::intern(typesys::Value response) {
  auto [it, inserted] = ids_.try_emplace(response, static_cast<int>(ids_.size()));
  if (inserted) values_.push_back(response);
  return it->second;
}

// ---------------------------------------------------------------------------
// StateBits

bool StateBits::contains(StateId s) const {
  const auto word = static_cast<std::size_t>(s) / 64;
  return s >= 0 && word < words_.size() &&
         ((words_[word] >> (static_cast<unsigned>(s) % 64)) & 1) != 0;
}

bool StateBits::intersects(const StateBits& other) const {
  const std::size_t common = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < common; ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

std::unordered_set<StateId> StateBits::to_set() const {
  std::unordered_set<StateId> result;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    for (std::uint64_t w = words_[i]; w != 0; w &= w - 1) {
      result.insert(static_cast<StateId>(i * 64 + static_cast<std::size_t>(std::countr_zero(w))));
    }
  }
  return result;
}

void StateBits::unite(std::span<const std::uint64_t> states) {
  for (const std::uint64_t s : states) {
    const auto word = static_cast<std::size_t>(s / 64);
    if (words_.size() <= word) words_.resize(word + 1, 0);
    words_[word] |= std::uint64_t{1} << (s % 64);
  }
}

// ---------------------------------------------------------------------------
// ReachMemo

ReachMemo::ReachMemo(TransitionCache& cache)
    : cache_(cache),
      num_processes_(cache.num_processes()),
      num_ops_(cache.num_ops()),
      op_bits_(std::bit_width(static_cast<unsigned>(num_ops_))) {
  // Multisets of at most n processes over num_ops ops map one-to-one onto
  // num_ops-subsets of [0, n + num_ops): op i's bar sits at (processes on ops
  // 0..i) + i. The combinatorial number system ranks such a subset as
  // sum_i C(bar_i, i + 1), so codes fill [0, C(n + num_ops, num_ops)).
  // C(p + i, i + 1) = C(p + i - 1, i) + C(p + i - 1, i + 1) fills the table.
  RCONS_ASSERT(num_ops_ >= 1);
  const auto width = static_cast<std::size_t>(num_processes_) + 1;
  rank_.assign(static_cast<std::size_t>(num_ops_) * width, 0);
  auto add = [](std::uint64_t a, std::uint64_t b) {
    RCONS_ASSERT_MSG(a <= std::numeric_limits<std::uint64_t>::max() - b,
                     "ReachMemo: op-multiset codes overflow 64 bits");
    return a + b;
  };
  std::uint64_t max_code = 0;  // the code of n processes all on op 0
  for (std::size_t op = 0; op < static_cast<std::size_t>(num_ops_); ++op) {
    for (std::size_t p = 1; p < width; ++p) {
      rank_[op * width + p] =
          op == 0 ? p : add(rank_[(op - 1) * width + p], rank_[op * width + p - 1]);
    }
    max_code = add(max_code, rank_[op * width + width - 1]);
  }
  code_bits_ = std::bit_width(max_code);
  RCONS_ASSERT_MSG(code_bits_ + op_bits_ < 64,
                   "ReachMemo: op-multiset code and op_j leave no bits of a 64-bit key "
                   "for the state id");
  state_limit_ = std::uint64_t{1} << (64 - code_bits_ - op_bits_);
  children_.resize(static_cast<std::size_t>(num_processes_) + 2);
}

void ReachMemo::trim() {
  const std::size_t bytes = keys_.size() * sizeof(std::uint64_t) +
                            values_.size() * sizeof(BlobId) +
                            pool_.size() * sizeof(std::uint64_t) +
                            offsets_.size() * sizeof(std::uint32_t) +
                            blob_slots_.size() * sizeof(BlobId);
  if (bytes <= kBudgetBytes) return;
  keys_ = std::vector<std::uint64_t>();
  values_ = std::vector<BlobId>();
  entries_ = 0;
  pool_ = std::vector<std::uint64_t>();
  offsets_ = std::vector<std::uint32_t>(1, 0);
  blob_slots_ = std::vector<BlobId>();
}

void ReachMemo::load(const Assignment& assignment) {
  trim();
  RCONS_ASSERT(assignment.num_processes() <= num_processes_);
  counts_.assign(static_cast<std::size_t>(num_ops_), 0);
  for (const ProcessClass& cls : assignment.classes) {
    counts_[static_cast<std::size_t>(cls.op)] += cls.count;
  }
}

std::uint64_t ReachMemo::pack_key(StateId s, OpId op) const {
  RCONS_ASSERT_MSG(static_cast<std::uint64_t>(s) < state_limit_,
                   "ReachMemo: state id does not fit the packed key");
  const auto width = static_cast<std::size_t>(num_processes_) + 1;
  std::uint64_t code = 0;
  std::size_t processes = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    processes += static_cast<std::size_t>(counts_[i]);
    code += rank_[i * width + processes];
  }
  return (static_cast<std::uint64_t>(s) << (code_bits_ + op_bits_)) | (code << op_bits_) |
         static_cast<std::uint64_t>(op);
}

ReachMemo::BlobId ReachMemo::recall(std::uint64_t key) const {
  return keys_.empty() ? kNoBlob : values_[find_slot(key)];
}

std::size_t ReachMemo::find_slot(std::uint64_t key) const {
  const std::size_t mask = keys_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(util::mix64(key)) & mask;
  while (values_[slot] != kNoBlob && keys_[slot] != key) slot = (slot + 1) & mask;
  return slot;
}

void ReachMemo::remember(std::uint64_t key, BlobId value) {
  if (2 * (entries_ + 1) > keys_.size()) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<BlobId> old_values = std::move(values_);
    const std::size_t capacity = std::max<std::size_t>(64, 2 * old_keys.size());
    keys_.assign(capacity, 0);
    values_.assign(capacity, kNoBlob);
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_values[i] == kNoBlob) continue;
      const std::size_t slot = find_slot(old_keys[i]);
      keys_[slot] = old_keys[i];
      values_[slot] = old_values[i];
    }
  }
  const std::size_t slot = find_slot(key);
  RCONS_DCHECK(values_[slot] == kNoBlob);
  keys_[slot] = key;
  values_[slot] = value;
  entries_ += 1;
}

std::span<const std::uint64_t> ReachMemo::blob(BlobId id) const {
  const std::uint32_t begin = offsets_[id];
  return {pool_.data() + begin, offsets_[id + 1] - begin};
}

ReachMemo::BlobId ReachMemo::intern_blob(std::span<const std::uint64_t> words) {
  const std::size_t blobs = offsets_.size() - 1;
  auto probe = [this](std::span<const std::uint64_t> content) {
    const std::size_t mask = blob_slots_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(hash_words(content)) & mask;
    while (blob_slots_[slot] != kNoBlob) {
      const auto stored = blob(blob_slots_[slot]);
      if (std::ranges::equal(stored, content)) break;
      slot = (slot + 1) & mask;
    }
    return slot;
  };
  if (2 * (blobs + 1) > blob_slots_.size()) {
    blob_slots_.assign(std::max<std::size_t>(64, 2 * blob_slots_.size()), kNoBlob);
    for (BlobId id = 0; id < blobs; ++id) blob_slots_[probe(blob(id))] = id;
  }
  const std::size_t slot = probe(words);
  if (blob_slots_[slot] != kNoBlob) return blob_slots_[slot];
  RCONS_ASSERT_MSG(pool_.size() + words.size() < kNoBlob, "ReachMemo: word pool is full");
  pool_.insert(pool_.end(), words.begin(), words.end());
  offsets_.push_back(static_cast<std::uint32_t>(pool_.size()));
  blob_slots_[slot] = static_cast<BlobId>(blobs);
  return static_cast<BlobId>(blobs);
}

ReachMemo::BlobId ReachMemo::intern_set() {
  std::sort(states_.begin(), states_.end());
  states_.erase(std::unique(states_.begin(), states_.end()), states_.end());
  return intern_blob(states_);
}

ReachMemo::BlobId ReachMemo::closure(StateId s, int depth) {
  const std::uint64_t key = pack_key(s, num_ops_);
  if (const BlobId hit = recall(key); hit != kNoBlob) return hit;
  std::vector<BlobId>& children = children_[static_cast<std::size_t>(depth)];
  children.clear();
  for (OpId op = 0; op < num_ops_; ++op) {
    int& count = counts_[static_cast<std::size_t>(op)];
    if (count == 0) continue;
    const StateId next = cache_.apply(s, op).next;
    --count;
    children.push_back(closure(next, depth + 1));
    ++count;
  }
  states_.assign(1, static_cast<std::uint64_t>(s));
  for (const BlobId child : children) {
    const auto states = blob(child);
    states_.insert(states_.end(), states.begin(), states.end());
  }
  const BlobId id = intern_set();
  remember(key, id);
  return id;
}

ReachMemo::BlobId ReachMemo::r_prime(StateId s, OpId op_j, int depth) {
  const std::uint64_t key = pack_key(s, op_j);
  if (const BlobId hit = recall(key); hit != kNoBlob) return hit;
  // p_j moves now, and the rest may follow; or another process moves first.
  const TransitionCache::Step step = cache_.apply(s, op_j);
  const int response = responses_.intern(step.response);
  const BlobId here = closure(step.next, depth + 1);
  std::vector<BlobId>& children = children_[static_cast<std::size_t>(depth)];
  children.clear();
  for (OpId op = 0; op < num_ops_; ++op) {
    int& count = counts_[static_cast<std::size_t>(op)];
    if (count == 0) continue;
    const StateId next = cache_.apply(s, op).next;
    --count;
    children.push_back(r_prime(next, op_j, depth + 1));
    ++count;
  }

  // Union by response: sort the pairs, then merge each response's sets.
  pairs_.assign(1, pack_pair(response, here));
  for (const BlobId child : children) {
    const auto list = blob(child);
    pairs_.insert(pairs_.end(), list.begin(), list.end());
  }
  std::sort(pairs_.begin(), pairs_.end());
  pairs_.erase(std::unique(pairs_.begin(), pairs_.end()), pairs_.end());
  merged_.clear();
  for (std::size_t i = 0; i < pairs_.size();) {
    std::size_t end = i + 1;
    while (end < pairs_.size() && pair_response(pairs_[end]) == pair_response(pairs_[i])) {
      ++end;
    }
    std::uint32_t set = pair_set(pairs_[i]);
    if (end - i > 1) {
      states_.clear();
      for (std::size_t k = i; k < end; ++k) {
        const auto states = blob(pair_set(pairs_[k]));
        states_.insert(states_.end(), states.begin(), states.end());
      }
      set = intern_set();
    }
    merged_.push_back(pack_pair(pair_response(pairs_[i]), set));
    i = end;
  }
  const BlobId id = intern_blob(merged_);
  remember(key, id);
  return id;
}

const StateBits& ReachMemo::q_set(StateId q0, const Assignment& assignment, int team) {
  load(assignment);
  StateBits& result = q_[team];
  result.clear();
  for (const ProcessClass& cls : assignment.classes) {
    if (cls.team != team) continue;
    const StateId next = cache_.apply(q0, cls.op).next;
    --counts_[static_cast<std::size_t>(cls.op)];
    result.unite(blob(closure(next, 1)));
    ++counts_[static_cast<std::size_t>(cls.op)];
  }
  return result;
}

const std::vector<StateBits>& ReachMemo::r_set(StateId q0, const Assignment& assignment,
                                               std::size_t cls_index, int team) {
  RCONS_ASSERT(cls_index < assignment.classes.size());
  RCONS_ASSERT(assignment.classes[cls_index].count >= 1);
  const OpId my_op = assignment.classes[cls_index].op;
  load(assignment);
  --counts_[static_cast<std::size_t>(my_op)];  // M': everyone but p_j
  std::vector<StateBits>& result = r_[team];
  for (StateBits& states : result) states.clear();
  auto add = [&result](int response, std::span<const std::uint64_t> states) {
    if (result.size() <= static_cast<std::size_t>(response)) {
      result.resize(static_cast<std::size_t>(response) + 1);
    }
    result[static_cast<std::size_t>(response)].unite(states);
  };

  // First mover: the distinguished process itself (when its team is the
  // required one), or any other process on the required team.
  if (assignment.classes[cls_index].team == team) {
    const TransitionCache::Step step = cache_.apply(q0, my_op);
    const int response = responses_.intern(step.response);
    add(response, blob(closure(step.next, 1)));
  }
  for (std::size_t c = 0; c < assignment.classes.size(); ++c) {
    const ProcessClass& cls = assignment.classes[c];
    if (cls.team != team || cls.count - (c == cls_index ? 1 : 0) < 1) continue;
    const StateId next = cache_.apply(q0, cls.op).next;
    --counts_[static_cast<std::size_t>(cls.op)];
    const BlobId list = r_prime(next, my_op, 1);
    ++counts_[static_cast<std::size_t>(cls.op)];
    for (const std::uint64_t pair : blob(list)) add(pair_response(pair), blob(pair_set(pair)));
  }
  return result;
}

// ---------------------------------------------------------------------------
// One-off materialization

RespStateSet r_set_pairs(TransitionCache& cache, StateId q0, const Assignment& assignment,
                         std::size_t cls_index, int team) {
  ReachMemo memo(cache);
  const std::vector<StateBits>& by_response = memo.r_set(q0, assignment, cls_index, team);
  RespStateSet result;
  for (std::size_t r = 0; r < by_response.size(); ++r) {
    for (const StateId s : by_response[r].to_set()) {
      result.insert(RespState{memo.response(static_cast<int>(r)), s});
    }
  }
  return result;
}

}  // namespace rcons::hierarchy
