// rcons-lint: hot-path
#include "engine/node_store.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <map>

#include "util/assert.hpp"

namespace rcons::engine {

using typesys::Value;

// --- Canonicalizer ----------------------------------------------------------

Canonicalizer::Canonicalizer(const std::vector<int>& symmetry_classes)
    : num_processes_(symmetry_classes.size()) {
  std::map<int, std::vector<int>> by_class;
  for (std::size_t i = 0; i < symmetry_classes.size(); ++i) {
    by_class[symmetry_classes[i]].push_back(static_cast<int>(i));
  }
  for (auto& [cls, members] : by_class) {
    if (members.size() >= 2) groups_.push_back(std::move(members));
  }
}

bool Canonicalizer::order(const std::vector<std::span<const Value>>& blocks,
                          const std::int64_t* steps, std::vector<int>& order) {
  const std::size_t n = blocks.size();
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  if (groups_.empty()) return false;
  RCONS_ASSERT(n == num_processes_);

  // Lexicographic order on (block content, steps_in_run). The step-count
  // tiebreak only disambiguates equal blocks — it never influences which
  // fingerprint results, since equal blocks fingerprint identically either
  // way — but it keeps the stored record deterministic.
  auto block_less = [&](int a, int b) {
    const std::span<const Value> x = blocks[static_cast<std::size_t>(a)];
    const std::span<const Value> y = blocks[static_cast<std::size_t>(b)];
    if (std::lexicographical_compare(x.begin(), x.end(), y.begin(), y.end())) return true;
    if (std::lexicographical_compare(y.begin(), y.end(), x.begin(), x.end())) return false;
    return steps[a] < steps[b];
  };

  bool permuted = false;
  for (const std::vector<int>& group : groups_) {
    sorted_.assign(group.begin(), group.end());
    // Stable: fully-equal blocks (e.g. every process at the root) keep their
    // original order, so the identity state never counts as a "hit".
    std::stable_sort(sorted_.begin(), sorted_.end(), block_less);
    for (std::size_t j = 0; j < group.size(); ++j) {
      order[static_cast<std::size_t>(group[j])] = sorted_[j];
      permuted = permuted || sorted_[j] != group[j];
    }
  }
  return permuted;
}

int Canonicalizer::orbit_mask(const Value* record,
                              const std::vector<std::size_t>& block_offsets,
                              std::vector<std::uint8_t>& skip) const {
  const std::size_t n = num_processes_;
  RCONS_ASSERT(block_offsets.size() == n + 1);
  skip.assign(n, 0);
  if (groups_.empty()) return 0;
  const std::size_t sidecar = block_offsets[n];
  int marked = 0;
  for (const std::vector<int>& group : groups_) {
    // In a canonical record the group's blocks are sorted, so every orbit is
    // a maximal run of adjacent equal (block, sidecar) members; the run's
    // first member — the lowest process index, which keeps the enumeration
    // order and hence lowest-trace selection deterministic — represents it.
    for (std::size_t j = 1; j < group.size(); ++j) {
      const auto a = static_cast<std::size_t>(group[j - 1]);
      const auto b = static_cast<std::size_t>(group[j]);
      const std::size_t a_len = block_offsets[a + 1] - block_offsets[a];
      const std::size_t b_len = block_offsets[b + 1] - block_offsets[b];
      if (a_len != b_len) continue;
      if (record[sidecar + a] != record[sidecar + b]) continue;
      if (!std::equal(record + block_offsets[a], record + block_offsets[a + 1],
                      record + block_offsets[b])) {
        continue;
      }
      skip[b] = 1;
      marked += 1;
    }
  }
  return marked;
}

// --- packed records ---------------------------------------------------------

namespace {

// Zigzag forms of the two distinguished values; their codes are 1 and 0.
constexpr std::uint64_t zigzag(Value v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
constexpr std::uint64_t kZigAck = zigzag(typesys::kAck);
constexpr std::uint64_t kZigBottom = zigzag(typesys::kBottom);
static_assert(kZigAck < kZigBottom);

// The code of `v`: 0 for ⊥, 1 for ACK, and every other zigzag form shifted
// up past those two — a bijection on uint64_t, so packing is injective.
constexpr std::uint64_t value_code(Value v) {
  const std::uint64_t z = zigzag(v);
  if (z < kZigAck) return z + 2;
  if (z == kZigAck) return 1;
  if (z < kZigBottom) return z + 1;
  if (z == kZigBottom) return 0;
  return z;
}

constexpr Value code_value(std::uint64_t code) {
  if (code == 0) return typesys::kBottom;
  if (code == 1) return typesys::kAck;
  std::uint64_t z = code - 2;
  if (z >= kZigAck) z = code - 1 < kZigBottom ? code - 1 : code;
  return static_cast<Value>((z >> 1) ^ (~(z & 1) + 1));
}

// Codes below 0x80 take one byte: ⊥, ACK and the values in [-63, 62].
constexpr std::uint64_t kOneByteZigzag = 0x80 - 2;
constexpr auto kOneByteValues = [] {
  std::array<Value, 0x80> values{};
  for (std::uint64_t code = 0; code < 0x80; ++code) values[code] = code_value(code);
  return values;
}();

// The packed byte stream is the words' little-endian byte sequence, so the
// words — and the fingerprints over them — do not depend on the host.
inline void words_to_little_endian(Value* words, std::size_t count) {
  if constexpr (std::endian::native == std::endian::big) {
    for (std::size_t i = 0; i < count; ++i) {
      words[i] = static_cast<Value>(__builtin_bswap64(static_cast<std::uint64_t>(words[i])));
    }
  }
}

// The byte stream of `size` record words: the words themselves on a
// little-endian host, a byte-swapped copy in `scratch` elsewhere.
inline const unsigned char* stream_bytes(const Value* words, std::size_t size,
                                         std::vector<Value>& scratch) {
  if constexpr (std::endian::native == std::endian::big) {
    scratch.assign(words, words + size);
    words_to_little_endian(scratch.data(), size);
    words = scratch.data();
  }
  return reinterpret_cast<const unsigned char*>(words);
}

inline unsigned char* put_varint(unsigned char* p, std::uint64_t u) {
  while (u >= 0x80) {
    *p++ = static_cast<unsigned char>(u | 0x80);
    u >>= 7;
  }
  *p++ = static_cast<unsigned char>(u);
  return p;
}

inline unsigned char* put_code(unsigned char* p, Value v) {
  const std::uint64_t z = zigzag(v);
  if (z < kOneByteZigzag) {
    *p = static_cast<unsigned char>(z + 2);
    return p + 1;
  }
  return put_varint(p, value_code(v));
}

// Appends one packed record to `out`. Codes, and code bytes copied from
// another record, go to a byte buffer sized for at most `max_codes` codes
// (10 bytes each at worst); finish() moves the prefix and sidecar bytes
// into zero-filled words, and the zero fill is the padding.
class RecordWriter {
 public:
  RecordWriter(std::vector<unsigned char>& bytes, std::size_t max_codes) {
    if (bytes.size() < max_codes * 10) bytes.resize(max_codes * 10);
    begin_ = bytes.data();
    p_ = begin_;
  }

  void varint(std::uint64_t u) { p_ = put_varint(p_, u); }

  void codes(const Value* values, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) p_ = put_code(p_, values[i]);
  }

  void copy(const unsigned char* code_bytes, std::size_t count) {
    std::memcpy(p_, code_bytes, count);
    p_ += count;
  }

  // Ends the prefix; returns the words it takes.
  std::size_t end_prefix() {
    prefix_bytes_ = static_cast<std::size_t>(p_ - begin_);
    return (prefix_bytes_ + 7) / 8;
  }

  void finish(std::vector<Value>& out) {
    const std::size_t prefix_words = (prefix_bytes_ + 7) / 8;
    const std::size_t sidecar_bytes = static_cast<std::size_t>(p_ - begin_) - prefix_bytes_;
    const std::size_t begin = out.size();
    const std::size_t words = prefix_words + (sidecar_bytes + 7) / 8;
    out.resize(begin + words);
    auto* dest = reinterpret_cast<unsigned char*>(out.data() + begin);
    std::memcpy(dest, begin_, prefix_bytes_);
    std::memcpy(dest + prefix_words * 8, begin_ + prefix_bytes_, sidecar_bytes);
    words_to_little_endian(out.data() + begin, words);
  }

 private:
  unsigned char* begin_ = nullptr;
  unsigned char* p_ = nullptr;
  std::size_t prefix_bytes_ = 0;
};

// Bounds-checked varint reads over [p, end): a record that ends inside a
// varint dies instead of reading past its last word.
class ByteReader {
 public:
  ByteReader(const unsigned char* begin, const unsigned char* end)
      : begin_(begin), p_(begin), end_(end) {}

  std::uint64_t varint() {
    RCONS_ASSERT_MSG(p_ != end_, "truncated node record");
    const std::uint64_t first = *p_++;
    if (first < 0x80) return first;
    std::uint64_t u = first & 0x7f;
    for (unsigned shift = 7; shift < 70; shift += 7) {
      RCONS_ASSERT_MSG(p_ != end_, "truncated node record");
      const std::uint64_t b = *p_++;
      u |= (b & 0x7f) << shift;
      if (b < 0x80) return u;
    }
    RCONS_UNREACHABLE("malformed node record: varint longer than 10 bytes");
  }

  Value value() {
    RCONS_ASSERT_MSG(p_ != end_, "truncated node record");
    if (*p_ < 0x80) return kOneByteValues[*p_++];
    return code_value(varint());
  }

  std::size_t offset() const { return static_cast<std::size_t>(p_ - begin_); }

  // Skips the current word's padding; returns the words consumed so far.
  std::size_t align() {
    const std::size_t words = (offset() + 7) / 8;
    p_ = begin_ + words * 8;
    return words;
  }

 private:
  const unsigned char* begin_;
  const unsigned char* p_;
  const unsigned char* end_;
};

// unpack_record over a record's byte stream. With `code_starts`, also
// records where each prefix value's code starts, plus the prefix's end.
std::size_t unpack_bytes(const unsigned char* bytes, std::size_t size,
                         std::size_t sidecar_count, std::vector<Value>& out,
                         std::vector<std::uint32_t>* code_starts) {
  ByteReader reader(bytes, bytes + size * sizeof(Value));
  const std::uint64_t prefix_count = reader.varint();
  // Each code takes at least one byte: a larger count cannot fit.
  RCONS_ASSERT_MSG(prefix_count <= size * sizeof(Value), "truncated node record");
  const auto prefix = static_cast<std::size_t>(prefix_count);
  out.resize(prefix + sidecar_count);
  if (code_starts != nullptr) code_starts->resize(prefix + 1);
  for (std::size_t i = 0; i < prefix; ++i) {
    if (code_starts != nullptr) (*code_starts)[i] = static_cast<std::uint32_t>(reader.offset());
    out[i] = reader.value();
  }
  if (code_starts != nullptr) (*code_starts)[prefix] = static_cast<std::uint32_t>(reader.offset());
  reader.align();
  for (std::size_t i = 0; i < sidecar_count; ++i) {
    out[prefix + i] = reader.value();
  }
  RCONS_ASSERT_MSG(reader.align() == size, "node record has trailing values");
  return prefix;
}

}  // namespace

std::size_t pack_record(const Value* values, std::size_t prefix_count,
                        std::size_t sidecar_count, std::vector<Value>& out) {
  std::vector<unsigned char> bytes;
  RecordWriter writer(bytes, 1 + prefix_count + sidecar_count);
  writer.varint(prefix_count);
  writer.codes(values, prefix_count);
  const std::size_t prefix_words = writer.end_prefix();
  writer.codes(values + prefix_count, sidecar_count);
  writer.finish(out);
  return prefix_words;
}

std::size_t unpack_record(const Value* words, std::size_t size, std::size_t sidecar_count,
                          std::vector<Value>& out) {
  std::vector<Value> scratch;
  return unpack_bytes(stream_bytes(words, size, scratch), size, sidecar_count, out, nullptr);
}

// --- NodeCodec --------------------------------------------------------------

NodeCodec::Encoded NodeCodec::emit(const Node& node, std::size_t header_count,
                                   std::size_t changed, std::vector<Value>& record) {
  const std::size_t n = blocks_.size();
  Encoded encoded;
  encoded.permuted = canonicalizer_.order(blocks_, node.steps_in_run.data(), order_);
  std::size_t prefix = header_count;
  for (const std::span<const Value> block : blocks_) prefix += block.size();

  RecordWriter writer(bytes_, 1 + prefix + n);
  writer.varint(prefix);
  writer.codes(build_.data(), header_count);
  // Parent blocks that stay adjacent in the parent's stream are copied in
  // one piece: without a permutation, the two runs around `changed`.
  std::size_t copy_begin = 0;
  std::size_t copy_end = 0;
  const auto flush = [&] {
    if (copy_end != copy_begin) writer.copy(parent_bytes_ + copy_begin, copy_end - copy_begin);
    copy_begin = copy_end = 0;
  };
  for (const int position_source : order_) {
    const auto src = static_cast<std::size_t>(position_source);
    if (changed == n || src == changed) {
      flush();
      writer.codes(blocks_[src].data(), blocks_[src].size());
      continue;
    }
    const std::size_t begin = code_starts_[block_offsets_[src]];
    if (begin != copy_end) {
      flush();
      copy_begin = begin;
    }
    copy_end = code_starts_[block_offsets_[src + 1]];
  }
  flush();
  encoded.fingerprint_length = writer.end_prefix();
  for (const int src : order_) writer.codes(&node.steps_in_run[static_cast<std::size_t>(src)], 1);
  record.clear();
  writer.finish(record);
  encoded.fingerprint = fingerprint_values(record.data(), encoded.fingerprint_length);

  // The copied code bytes must equal coding the canonical image afresh.
  RCONS_DCHECK_MSG(
      [&] {
        std::vector<Value> image(build_.begin(),
                                 build_.begin() + static_cast<std::ptrdiff_t>(header_count));
        for (const int src : order_) {
          const std::span<const Value> block = blocks_[static_cast<std::size_t>(src)];
          image.insert(image.end(), block.begin(), block.end());
        }
        for (const int src : order_) image.push_back(node.steps_in_run[static_cast<std::size_t>(src)]);
        std::vector<Value> packed;
        pack_record(image.data(), prefix, n, packed);
        return packed == record;
      }(),
      "packed record differs from its canonical image");
  return encoded;
}

NodeCodec::Encoded NodeCodec::encode(const Node& node, std::vector<Value>& record) {
  const std::size_t n = node.processes.size();
  build_.clear();
  encode_node_header(node, build_);
  const std::size_t header = build_.size();
  offsets_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    offsets_.push_back(build_.size());
    encode_process_block(node, i, build_);
  }
  offsets_.push_back(build_.size());
  blocks_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    blocks_[i] = std::span<const Value>(build_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]);
  }
  return emit(node, header, n, record);
}

NodeCodec::Encoded NodeCodec::encode_successor(const Value* parent,
                                               std::size_t parent_size,
                                               const Node& node, int changed_process,
                                               std::vector<Value>& record) {
  const std::size_t n = node.processes.size();
  RCONS_ASSERT_MSG(parent == decoded_ && parent_size == decoded_size_ &&
                       block_offsets_.size() == n + 1,
                   "encode_successor needs the parent's decoded image");
  RCONS_ASSERT(changed_process >= 0 && static_cast<std::size_t>(changed_process) < n);
  const auto changed = static_cast<std::size_t>(changed_process);

  build_.clear();
  encode_node_header(node, build_);
  const std::size_t header = build_.size();
  encode_process_block(node, changed, build_);
  blocks_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    blocks_[i] = i == changed
                     ? std::span<const Value>(build_.data() + header, build_.size() - header)
                     : std::span<const Value>(image_.data() + block_offsets_[i],
                                              block_offsets_[i + 1] - block_offsets_[i]);
  }
  return emit(node, header, changed, record);
}

void NodeCodec::decode(const Value* record, std::size_t size, Node& out) {
  const std::size_t n = out.processes.size();
  parent_bytes_ = stream_bytes(record, size, swapped_);
  unpack_bytes(parent_bytes_, size, n, image_, &code_starts_);
  decoded_ = record;
  decoded_size_ = size;
  const Value* values = image_.data();
  const std::size_t count = image_.size();

  RCONS_ASSERT_MSG(count >= 2, "truncated node record");
  out.crashes_used = static_cast<int>(values[0]);
  const auto ndecisions = static_cast<std::size_t>(values[1]);
  std::size_t at = 2;
  RCONS_ASSERT_MSG(at + ndecisions <= count, "truncated node record");
  out.decisions.clear();
  for (std::size_t i = 0; i < ndecisions; ++i) out.decisions.push_back(values[at++]);
  at += out.memory.decode(values + at, count - at);

  // Whether records carry the at-most-once (ever, last) pair is a run-level
  // invariant reflected in the root-shaped scratch node.
  const bool track_outputs = !out.ever_output.empty();
  block_offsets_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    block_offsets_.push_back(at);
    RCONS_ASSERT_MSG(at < count, "truncated node record");
    out.done[i] = values[at++] != 0 ? 1 : 0;
    if (track_outputs) {
      RCONS_ASSERT_MSG(at + 1 < count, "truncated node record");
      out.ever_output[i] = values[at++] != 0 ? 1 : 0;
      out.last_output[i] = values[at++];
    }
    at += out.processes[i].decode(values + at, count - at);
  }
  block_offsets_.push_back(at);
  RCONS_ASSERT_MSG(at + n <= count, "truncated node record");
  RCONS_ASSERT_MSG(at + n == count, "node record has trailing values");
  for (std::size_t i = 0; i < n; ++i) {
    out.steps_in_run[i] = static_cast<std::int64_t>(values[at++]);
  }
}

void NodeCodec::restore(const Value* record, std::size_t size, Node& out,
                        int dirty) {
  if (dirty == kDirtyAll) {
    decode(record, size, out);
    return;
  }
  const std::size_t n = out.processes.size();
  RCONS_ASSERT_MSG(record == decoded_ && size == decoded_size_ &&
                       block_offsets_.size() == n + 1,
                   "restore needs the record's decoded image");
  const Value* values = image_.data();
  const std::size_t count = image_.size();

  // Shared flat fields are always refilled — any event can touch them.
  out.crashes_used = static_cast<int>(values[0]);
  const auto ndecisions = static_cast<std::size_t>(values[1]);
  out.decisions.clear();
  for (std::size_t i = 0; i < ndecisions; ++i) out.decisions.push_back(values[2 + i]);
  out.memory.decode(values + 2 + ndecisions, count - 2 - ndecisions);

  const bool track_outputs = !out.ever_output.empty();
  const std::size_t sidecar = block_offsets_[n];
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t at = block_offsets_[i];
    out.done[i] = values[at++] != 0 ? 1 : 0;
    if (track_outputs) {
      out.ever_output[i] = values[at++] != 0 ? 1 : 0;
      out.last_output[i] = values[at++];
    }
    // Program state: only the dirtied process actually diverged from the
    // record; everyone else's object is already byte-equivalent.
    if (static_cast<int>(i) == dirty) {
      out.processes[i].decode(values + at, count - at);
    }
    out.steps_in_run[i] = static_cast<std::int64_t>(values[sidecar + i]);
  }
}

int NodeCodec::orbit_skip_mask(const Value* record,
                               std::vector<std::uint8_t>& skip) const {
  RCONS_ASSERT_MSG(record == decoded_, "orbit_skip_mask needs the record's decoded image");
  return canonicalizer_.orbit_mask(image_.data(), block_offsets_, skip);
}

// --- NodeStore --------------------------------------------------------------

NodeStore::NodeStore(int shard_bits, std::uint64_t expected_states, int num_arenas)
    : shard_bits_(shard_bits), domain_(num_arenas) {
  RCONS_ASSERT_MSG(shard_bits >= 0 && shard_bits <= 16,
                   "shard_bits must be in [0, 16]");
  const std::size_t count = std::size_t{1} << shard_bits;
  const std::uint64_t expected_per_shard = expected_states / count;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>(expected_per_shard, domain_));
  }
  arenas_.reserve(static_cast<std::size_t>(num_arenas));
  for (int i = 0; i < num_arenas; ++i) arenas_.push_back(std::make_unique<Arena>());
}

Value* NodeStore::arena_refill(Arena& arena, std::size_t need) {
  RCONS_ASSERT_MSG(need <= kChunkValues, "node record exceeds chunk size");
  // Cold path: one lock per kChunkValues interned values per worker, the
  // arena analogue of the index's growth mutex. The bump pointer handoff to
  // readers stays lock-free — records become visible through the index
  // slot's release-publish, never through this lock.
  // rcons-lint: allow(hot-path-no-mutex) one lock per kChunkValues interned values, arena refill only
  std::lock_guard<std::mutex> lock(chunk_mu_);
  chunks_.push_back(std::make_unique<Value[]>(kChunkValues));
  arena.cur = chunks_.back().get();
  arena.end = arena.cur + kChunkValues;
  arena.chunk_values += kChunkValues;
  return arena.cur;
}

void NodeStore::reclaim(bool wait) {
  // Workers that merely see arrays waiting on a slower arena pay a scan of
  // the announcements, not a lock.
  if (domain_.safe_epoch() <= reclaimed_through_.load(std::memory_order_relaxed)) return;
  // rcons-lint: allow(hot-path-no-mutex) free pass: once per safe-epoch advance; quiesce() only try-locks, offline() waits once per worker
  std::unique_lock<std::mutex> lock(reclaim_mu_, std::defer_lock);
  if (wait) {
    lock.lock();
  } else if (!lock.try_lock()) {
    return;
  }
  // Re-read under the lock: a pass that started before this caller's
  // announcement may have freed only through an older epoch.
  const std::uint64_t safe = domain_.safe_epoch();
  if (safe <= reclaimed_through_.load(std::memory_order_relaxed)) return;
  std::uint64_t freed = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) freed += shard->index.reclaim(safe);
  domain_.released(freed);
  reclaimed_through_.store(safe, std::memory_order_relaxed);
}

NodeStore::Intern NodeStore::intern(util::U128 fingerprint, const Value* record,
                                    std::size_t length, std::size_t fingerprinted,
                                    int arena_index, CasTable::OpStats* stats) {
  RCONS_ASSERT(arena_index >= 0 &&
               static_cast<std::size_t>(arena_index) < arenas_.size());
  RCONS_DCHECK(fingerprinted <= length);
  Arena& arena = *arenas_[static_cast<std::size_t>(arena_index)];
  Shard& shard = *shards_[shard_index(fingerprint)];

  // The record copy is staged from the caller's private arena only inside
  // the claimed window — after the lock-free duplicate check — so a
  // duplicate intern never copies and never allocates.
  const CasTable::Found found = shard.index.insert_with(
      fingerprint,
      [&]() -> std::uint64_t {
        Value* header = arena.cur;
        if (header == nullptr ||
            static_cast<std::size_t>(arena.end - header) < length + 1) {
          header = arena_refill(arena, length + 1);
        }
        header[0] = static_cast<Value>(length);
        std::memcpy(header + 1, record, length * sizeof(Value));
        arena.cur = header + 1 + length;
        arena.payload_values += length;
        return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(header));
      },
      stats);

  const Value* header =
      reinterpret_cast<const Value*>(static_cast<std::uintptr_t>(found.value));
  if (!found.inserted) {
    arena.duplicate_hits += 1;
    // Exact dedup audit: the slot's publish ordered the resident record
    // before this read, so Debug builds can afford to look at it.
    RCONS_DCHECK_MSG(static_cast<std::size_t>(header[0]) >= fingerprinted &&
                         std::equal(record, record + fingerprinted, header + 1),
                     "fingerprint collision: a duplicate hit's record differs from "
                     "the resident one");
  }
  return Intern{found.value, found.inserted, header + 1,
                static_cast<std::uint32_t>(length)};
}

void NodeStore::fetch(NodeId id, std::vector<Value>& out) const {
  const Value* header =
      reinterpret_cast<const Value*>(static_cast<std::uintptr_t>(id));
  RCONS_ASSERT(header != nullptr);
  const auto length = static_cast<std::size_t>(header[0]);
  out.assign(header + 1, header + 1 + length);
}

std::uint64_t NodeStore::size() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->index.size();
  return total;
}

NodeStore::Stats NodeStore::stats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    stats.nodes += shard->index.size();
    stats.rehashes += shard->index.rehashes();
    stats.slot_bytes += shard->index.slot_bytes();
    stats.retired_bytes += shard->index.retired_bytes();
    stats.reclaimed_bytes += shard->index.reclaimed_bytes();
  }
  for (const auto& arena : arenas_) {
    stats.value_bytes += arena->payload_values * sizeof(Value);
    stats.record_bytes += arena->chunk_values * sizeof(Value);
    stats.duplicate_hits += arena->duplicate_hits;
  }
  return stats;
}

NodeStore::LoadStats NodeStore::load_stats() const {
  LoadStats stats;
  stats.min_shard = ~0ULL;
  for (const auto& shard : shards_) {
    const std::uint64_t count = shard->index.size();
    stats.total += count;
    if (count < stats.min_shard) stats.min_shard = count;
    if (count > stats.max_shard) stats.max_shard = count;
    stats.rehashes += shard->index.rehashes();
  }
  for (const auto& arena : arenas_) stats.duplicate_inserts += arena->duplicate_hits;
  if (stats.total == 0) {
    stats.min_shard = 0;
    stats.imbalance = 1.0;
  } else {
    const double even =
        static_cast<double>(stats.total) / static_cast<double>(shards_.size());
    stats.imbalance = even > 0 ? static_cast<double>(stats.max_shard) / even : 1.0;
  }
  return stats;
}

int pick_shard_bits(int num_threads, std::uint64_t expected_states) {
  if (num_threads <= 1) return 0;

  // Smallest k with 2^k >= 8 * num_threads.
  int contention_bits = 0;
  while (contention_bits < 16 &&
         (std::uint64_t{1} << contention_bits) <
             8 * static_cast<std::uint64_t>(num_threads)) {
    contention_bits += 1;
  }

  if (expected_states == 0) return contention_bits;

  // Largest k with 2^k <= expected_states / 64 (0 when the quotient is 0 or
  // 1 — the loop never advances).
  int occupancy_bits = 0;
  while (occupancy_bits < 16 &&
         (std::uint64_t{1} << (occupancy_bits + 1)) <= expected_states / 64) {
    occupancy_bits += 1;
  }

  return contention_bits < occupancy_bits ? contention_bits : occupancy_bits;
}

}  // namespace rcons::engine
