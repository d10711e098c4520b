// Interned node representation of the exhaustive explorers — the only one.
// rcons-lint: hot-path
//
// Cloning `Memory` plus N type-erased `Process` objects per successor would
// dominate expansion. Instead a node is its canonical encoding, packed into
// a few 64-bit words (see "Record layout") and interned once in a per-worker
// bump arena, keyed by the node's 128-bit fingerprint through a lock-free
// CAS-claimed slot index (engine/cas_table.hpp). The store doubles as the
// visited set (interning *is* deduplication), frontier items carry record
// views instead of owning nodes, and expansion decodes a record into a
// reusable per-worker scratch `Node` (every program implements decode(), see
// sim/process.hpp) — zero allocations, zero program clones, and zero locks
// per successor on both the hit and the miss path.
//
// Record layout (NodeCodec). A node's *Value image* is
//
//   [crashes_used, ndecisions, decisions...]    header (sorted distinct outputs)
//   [registers..., object states...]            Memory::encode
//   per process: [done, (ever, last)?, state…]  Process::encode (variable; the
//                                               ever/last pair only when the
//                                               at-most-once property tracks
//                                               per-process outputs)
//   [steps_in_run...]                           sidecar, one value per process
//
// whose part before the sidecar is byte-for-byte the values
// `engine::encode_node` produces, the full-record key of the test-only
// reference explorer (tests/support/reference_explorer.hpp). The stored
// record is that image, its blocks in canonical order (see below), *packed*
// as a byte stream into little-endian 64-bit words (pack_record):
//
//   prefix:  varint(value count), then one code per value, zero-padded to a
//            word boundary
//   sidecar: one code per process step count, zero-padded to a word
//
// A value's code is the LEB128 varint of its zigzag form shifted up by two,
// with the two bottom codes given to kBottom and kAck: ⊥, ACK and every value
// in [-63, 62] take one byte, and the coding is injective over all of
// int64_t. Almost every value of a node (program counters, pids, the inputs
// 101/202, step counts) fits one or two bytes, so a record holds ~5 words
// where the image holds ~26. The leading count keeps the zero padding from
// hiding a trailing 0 value.
//
// The fingerprint covers the packed prefix words (FpStream over them); the
// sidecar (per-run step counts for the recoverable-wait-freedom bound) is
// intentionally outside it: the first path to reach a state fixes its step
// counts. Because the sidecar is packed too, two records of one state may
// differ in their sidecar words and in how many there are.
//
// Symmetry reduction: a `Canonicalizer` built from a symmetry declaration
// (ExplorerConfig::symmetry_classes) sorts the per-process blocks of each
// class — processes running identical programs — into a canonical order
// before fingerprinting. States that differ only by permuting interchangeable
// processes then intern to one record, shrinking visited sets combinatorially
// for team-consensus and tournament scenarios. The canonical representative
// is what exploration continues from; since class members are behaviourally
// identical this preserves every verdict, but a violating schedule found
// under reduction is a schedule of representatives — valid up to a class
// permutation, not guaranteed to replay verbatim on the concrete system.
//
// The canonicalizer is also *stabilizer-aware*: from a canonical parent
// record it can compute, once per expansion, which same-class processes are
// in the same orbit of the state's stabilizer — identical block AND identical
// sidecar step count — so expansion enumerates one representative event per
// orbit and credits the skipped siblings (Canonicalizer::orbit_mask,
// NodeCodec::orbit_skip_mask, engine.orbit_skipped).
#ifndef RCONS_ENGINE_NODE_STORE_HPP
#define RCONS_ENGINE_NODE_STORE_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "engine/cas_table.hpp"
#include "engine/expand.hpp"
#include "util/hash.hpp"

namespace rcons::engine {

// Sorts same-class per-process blocks of an encoded node into canonical
// order. Built once per run from the symmetry declaration; copy one per
// worker (cheap — it owns only the class index and scratch buffers).
class Canonicalizer {
 public:
  Canonicalizer() = default;  // identity (no declaration)
  explicit Canonicalizer(const std::vector<int>& symmetry_classes);

  // True when at least one class has two or more members.
  bool active() const { return !groups_.empty(); }

  // The canonical order of a node's per-process blocks, given each
  // process's block values and sidecar step count: sets order[i] to the
  // process whose block (and step count) goes to position i. Same-class
  // blocks are sorted by (block values, step count); everything else keeps
  // its place. Returns true when the order is not the identity (a
  // canonicalization "hit").
  bool order(const std::vector<std::span<const typesys::Value>>& blocks,
             const std::int64_t* steps, std::vector<int>& order);

  // Stabilizer orbits of a *canonical* record: marks skip[p] = 1 for every
  // same-class process whose block and sidecar step count equal those of an
  // earlier class member (canonical order sorts equal blocks adjacent, so
  // one adjacent compare per member suffices). Such a process is a
  // non-representative orbit member — any event on it produces a state that
  // canonicalizes identically to the representative's — and expansion may
  // skip its events entirely. Returns the number of processes marked.
  int orbit_mask(const typesys::Value* record,
                 const std::vector<std::size_t>& block_offsets,
                 std::vector<std::uint8_t>& skip) const;

 private:
  std::size_t num_processes_ = 0;
  std::vector<std::vector<int>> groups_;  // classes with >= 2 members
  std::vector<int> sorted_;               // scratch: one class being sorted
};

// Packs a Value image into record words (see "Record layout" above):
// `prefix_count` values, then `sidecar_count` values, appended to `out`.
// Returns the number of words the prefix takes (what the fingerprint covers).
std::size_t pack_record(const typesys::Value* values, std::size_t prefix_count,
                        std::size_t sidecar_count, std::vector<typesys::Value>& out);

// Inverse of pack_record: replaces `out` with the image of the `size`-word
// record at `words`, whose sidecar holds `sidecar_count` values, and returns
// the prefix value count. Never reads past `size` words: a record cut short
// or ending inside a varint dies with "truncated node record".
std::size_t unpack_record(const typesys::Value* words, std::size_t size,
                          std::size_t sidecar_count, std::vector<typesys::Value>& out);

// Encodes nodes into interned records and decodes records back into a
// structurally compatible scratch node. One codec per worker (it owns scratch
// buffers); all codecs of a run must share the same symmetry declaration.
//
// decode() unpacks the record once into a codec-owned Value image and
// captures its *layout* (per-process block offsets), which unlocks two
// per-successor fast paths against that record:
//   * restore() — refill only the shared header/memory/sidecar plus the one
//     process block a previous event dirtied, instead of decoding all n
//     process programs again;
//   * encode_successor() — encode only the stepped/crashed process's block;
//     the n-1 unchanged blocks are read from the parent's image to find the
//     canonical order, and their code bytes are copied straight from the
//     parent's packed record.
// Both are pure record-level optimizations: the resulting records and
// fingerprints are identical to full decode()+encode().
class NodeCodec {
 public:
  // `dirty` argument of restore(): no process block needs re-decoding, or
  // all of them do (also refreshes the captured layout via full decode()).
  static constexpr int kDirtyNone = -1;
  static constexpr int kDirtyAll = -2;

  NodeCodec() = default;
  explicit NodeCodec(const std::vector<int>& symmetry_classes)
      : canonicalizer_(symmetry_classes) {}

  struct Encoded {
    util::U128 fingerprint;
    std::size_t fingerprint_length = 0;  // record prefix words the fingerprint covers
    bool permuted = false;               // canonicalizer applied a permutation
  };

  // Writes the packed record (canonical prefix + sidecar) for `node` into
  // `record` and fingerprints its prefix words.
  Encoded encode(const Node& node, std::vector<typesys::Value>& record);

  // Like encode(), but every process block except `changed_process` is
  // taken from `parent`, which must be the record most recently decode()d
  // by this codec: its values from the decoded image, its codes from the
  // packed words. The header, memory, changed block, and sidecar come from
  // `node`.
  Encoded encode_successor(const typesys::Value* parent, std::size_t parent_size,
                           const Node& node, int changed_process,
                           std::vector<typesys::Value>& record);

  // Restores `out` — which must be structurally a copy of the run's root
  // (same memory layout, same programs) — from a record produced by encode().
  // Keeps the record's image and layout for restore()/encode_successor()/
  // orbit_skip_mask() against the same record.
  void decode(const typesys::Value* record, std::size_t size, Node& out);

  // Partial re-decode of the record last passed to decode(): always refills
  // the header, decisions, memory, per-process scalar fields and sidecar
  // (cheap flat reads of the image), but re-decodes only the program state
  // of process `dirty` (kDirtyNone: none; kDirtyAll: delegates to decode(),
  // refreshing the layout). Between successors of one expansion exactly one
  // process — the previous event's target — is dirty, so this replaces n
  // program decodes with one.
  void restore(const typesys::Value* record, std::size_t size, Node& out,
               int dirty);

  // Orbit mask of the record last passed to decode() (see
  // Canonicalizer::orbit_mask). Returns the number of processes marked.
  int orbit_skip_mask(const typesys::Value* record,
                      std::vector<std::uint8_t>& skip) const;

  bool canonicalizing() const { return canonicalizer_.active(); }

 private:
  // Packs the node whose header values open `build_` and whose blocks are
  // `blocks_`, in canonical order, into `record` and fingerprints its
  // prefix. Blocks other than `changed` come from the decoded record, and
  // their code bytes are copied from it; `changed` == n codes every block.
  Encoded emit(const Node& node, std::size_t header_count, std::size_t changed,
               std::vector<typesys::Value>& record);

  Canonicalizer canonicalizer_;
  // Scratch of the node being encoded: its header and freshly encoded
  // blocks, every block's values, the canonical order, and the codes.
  std::vector<typesys::Value> build_;
  std::vector<std::size_t> offsets_;
  std::vector<std::span<const typesys::Value>> blocks_;
  std::vector<int> order_;
  std::vector<unsigned char> bytes_;

  // The record most recently decode()d: its byte stream, its image, where
  // the image's process blocks and sidecar live, and where each prefix
  // value's code starts in the stream. Valid until the next decode().
  const typesys::Value* decoded_ = nullptr;
  std::size_t decoded_size_ = 0;
  const unsigned char* parent_bytes_ = nullptr;
  std::vector<typesys::Value> swapped_;  // the stream, on big-endian hosts
  std::vector<typesys::Value> image_;
  std::vector<std::size_t> block_offsets_;  // n+1 entries; [n] = sidecar
  std::vector<std::uint32_t> code_starts_;  // prefix count + 1 entries
};

// Interning store: record payloads live in per-worker chunked bump arenas,
// keyed by fingerprint through lock-free CAS-claimed slot tables
// (engine/cas_table.hpp). Interning an already-present fingerprint is the
// deduplication hit that replaces the separate visited set.
//
// intern() is mutex-free on both the hit and the miss path: the duplicate
// check is a lock-free probe, and a miss claims its index slot by CAS and
// bump-allocates the record copy from the calling worker's private arena
// *inside the claimed window* (CasTable::insert_with), so duplicates never
// pay a record copy and new records are published to concurrent readers by
// the slot's release-store. The only locks left are cold: index growth
// (CasTable's epoch migration), freeing swept index arrays (below), and
// fresh chunk allocation (once per kChunkValues interned values per worker).
//
// Swept index arrays are freed during the run by quiescent-state
// reclamation (QsbrDomain, engine/cas_table.hpp): arena i is participant i
// of the store's domain. Callers that never go online (single-threaded
// replays, unit tests) keep every swept array until the store is destroyed.
class NodeStore {
 public:
  using NodeId = std::uint64_t;

  // Valid shard_bits: 0 (single index shard — the sequential layout) through
  // 16. `expected_states` pre-sizes the shard indexes so a run of the
  // anticipated size never rehashes (0 = unknown, start minimal).
  // `num_arenas` is the number of concurrent interning callers (one arena
  // per worker; arena i must only ever be used by one thread at a time).
  explicit NodeStore(int shard_bits, std::uint64_t expected_states = 0,
                     int num_arenas = 1);

  struct Intern {
    NodeId id = 0;
    bool inserted = false;  // true when the fingerprint was new

    // Direct view of the interned payload in its arena chunk. Records are
    // immutable once written and chunks never move, so the pointer is stable
    // for the store's lifetime; the index's publish/acquire tag protocol
    // orders the payload writes before any reader that found the id, so
    // expansion decodes in place — no lock, no copy per fetch.
    const typesys::Value* record = nullptr;
    std::uint32_t length = 0;
  };

  // Interns the `length` values at `record` under `fingerprint` using the
  // caller's arena; returns the (existing or new) id and the resident payload
  // view. Probe/CAS counters accumulate into `stats` when non-null.
  //
  // A duplicate hit reads only its index slot: the payload pointer is
  // derived from the slot value without touching the arena, and the
  // returned length is the one given. `fingerprinted` is the record prefix
  // the fingerprint covers; the NodeCodec sidecar after it may differ
  // between records of one state, in its words and in their number, so on a
  // hit the view is only good for identity — callers decode inserted
  // records only. RCONS_DCHECK builds compare that prefix of the resident
  // record with `record` on every hit, so a fingerprint collision aborts
  // there instead of merging two states.
  Intern intern(util::U128 fingerprint, const typesys::Value* record,
                std::size_t length, std::size_t fingerprinted, int arena = 0,
                CasTable::OpStats* stats = nullptr);
  Intern intern(util::U128 fingerprint, const std::vector<typesys::Value>& record,
                int arena = 0, CasTable::OpStats* stats = nullptr) {
    return intern(fingerprint, record.data(), record.size(), record.size(), arena,
                  stats);
  }

  // Quiescent-state reclamation of the swept index arrays. The thread
  // interning through `arena` calls online(arena) before its first intern,
  // quiesce(arena) at points where it is inside no store operation, and
  // offline(arena) after its last intern. quiesce() costs one load and one
  // store to the arena's own cache line; when swept arrays are waiting it
  // also frees those every online arena has passed (reclaim()). offline()
  // runs a free pass too, waiting for one in progress rather than skipping,
  // so the last arena to leave frees every swept array.
  void online(int arena) { domain_.online(arena); }
  void offline(int arena) {
    domain_.offline(arena);
    reclaim(/*wait=*/true);
  }
  void quiesce(int arena) {
    if (domain_.quiesce(arena)) [[unlikely]] reclaim(/*wait=*/false);
  }

  // Hints the cache to fetch `fingerprint`'s home index slot ahead of its
  // intern() (CasTable::prefetch).
  void prefetch(util::U128 fingerprint) const {
    shards_[shard_index(fingerprint)]->index.prefetch(fingerprint);
  }

  // Copies record `id` into `out` (cleared first). Safe to call concurrently
  // with intern().
  void fetch(NodeId id, std::vector<typesys::Value>& out) const;

  // Unique records interned. Exact at quiescence.
  std::uint64_t size() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_arenas() const { return static_cast<int>(arenas_.size()); }

  // Exact at quiescence.
  struct Stats {
    std::uint64_t nodes = 0;
    // Payload bytes across all records, without the per-record length
    // header. Records are packed NodeCodec words, so this (and the
    // `store.value_bytes` counter) counts 8 bytes per packed word, not per
    // node value.
    std::uint64_t value_bytes = 0;
    std::uint64_t duplicate_hits = 0;  // interns that found the key present
    std::uint64_t rehashes = 0;        // index growth epochs across shards
    // Memory held: arena chunks allocated (headers and chunk-end slack
    // included), the live index arrays, and the index arrays sealed by
    // growth that are still held (pending or in their sweep, or swept but
    // not yet freed by a quiescent point).
    std::uint64_t record_bytes = 0;
    std::uint64_t slot_bytes = 0;
    std::uint64_t retired_bytes = 0;
    // Memory freed: swept index arrays released during the run.
    std::uint64_t reclaimed_bytes = 0;
  };
  Stats stats() const;

  // Occupancy statistics for tuning shard_bits: total entries, the
  // fullest/emptiest shard, and the imbalance ratio max/(total/shards)
  // (1.0 = perfectly even). `duplicate_inserts` counts interns that found
  // their key present; `rehashes` counts index growth epochs across shards.
  struct LoadStats {
    std::uint64_t total = 0;
    std::uint64_t min_shard = 0;
    std::uint64_t max_shard = 0;
    double imbalance = 1.0;
    std::uint64_t duplicate_inserts = 0;
    std::uint64_t rehashes = 0;
  };
  LoadStats load_stats() const;

  // Quiescent iteration over every interned record for checkpointing:
  // `fn(fingerprint, payload, length)` where `payload` points at the record
  // values (the slice intern() copied, excluding the length header). Caller
  // contract: no concurrent interns; a concurrent reclaim() is fine (both
  // take the index's growth mutex, and a freed array's keys all live in
  // newer arrays). Keys migrated by a partial index sweep
  // appear in two epoch arrays with the same header address; they are
  // deduplicated here (by that address) so each record is yielded once.
  template <typename F>
  void for_each_record(F&& fn) {
    std::vector<std::pair<util::U128, std::uint64_t>> entries;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      entries.clear();
      shard->index.for_each_published([&](util::U128 key, std::uint64_t value) {
        entries.emplace_back(key, value);
      });
      std::sort(entries.begin(), entries.end(),
                [](const auto& a, const auto& b) { return a.second < b.second; });
      std::uint64_t last = 0;
      bool first = true;
      for (const auto& [key, value] : entries) {
        if (!first && value == last) continue;  // migrated duplicate
        first = false;
        last = value;
        const auto* header =
            reinterpret_cast<const typesys::Value*>(static_cast<std::uintptr_t>(value));
        fn(key, header + 1, static_cast<std::uint32_t>(header[0]));
      }
    }
  }

 private:
  // Fixed-capacity chunks keep record payloads contiguous without ever
  // moving (ids and payload addresses are stable once written). A record is
  // stored as [length][words...]; the id is the header's address.
  static constexpr std::size_t kChunkValues = std::size_t{1} << 14;

  // One per interning worker; cache-line separated so two workers' bump
  // pointers and tallies never false-share.
  struct alignas(64) Arena {
    typesys::Value* cur = nullptr;
    typesys::Value* end = nullptr;
    std::uint64_t payload_values = 0;  // record values staged (excl. headers)
    std::uint64_t chunk_values = 0;    // values in the chunks this arena took
    std::uint64_t duplicate_hits = 0;
  };

  struct alignas(64) Shard {
    Shard(std::uint64_t expected, QsbrDomain& domain) : index(domain, expected) {}
    CasTable index;  // fingerprint -> record header address
  };

  // Frees the swept index arrays every online arena has passed. Cold: runs
  // only while some are waiting, and one caller at a time; with `wait`
  // false a caller that finds a pass in progress leaves the work to it.
  void reclaim(bool wait);

  // Points the arena at a fresh chunk with >= `need` free values. Cold path:
  // takes chunk_mu_ once per kChunkValues interned values per worker.
  typesys::Value* arena_refill(Arena& arena, std::size_t need);

  std::size_t shard_index(util::U128 key) const {
    return shard_bits_ == 0
               ? 0
               : static_cast<std::size_t>(key.hi >> (64 - shard_bits_));
  }

  int shard_bits_;
  QsbrDomain domain_;  // declared before shards_: their indexes retire into it
  // Highest safe epoch a reclaim pass has freed through; written under
  // reclaim_mu_, read before it so a pass with nothing new never locks.
  std::atomic<std::uint64_t> reclaimed_through_{0};
  // rcons-lint: allow(hot-path-no-mutex) cold: one free pass at a time, try-locked between items, never per-intern
  std::mutex reclaim_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Arena>> arenas_;
  // rcons-lint: allow(hot-path-no-mutex) cold: guards chunk allocation, never per-intern
  std::mutex chunk_mu_;
  std::vector<std::unique_ptr<typesys::Value[]>> chunks_;
};

// Picks NodeStore shard_bits for a parallel run instead of a fixed default.
// Two forces:
//
//   * contention — with T workers interning concurrently we want enough
//     shards that two unrelated interns rarely meet on one index's atomics:
//     at least 8×T shards (collision probability <= 1/8 per pair), rounded
//     up to the next power of two;
//   * occupancy — a state space of S states should not be spread over more
//     than S/64 shards, or most shards sit empty and load stats (and cache
//     locality) degrade.
//
// The occupancy cap wins when they conflict (tiny spaces finish before
// contention matters). `expected_states` of 0 means unknown — only the
// contention bound applies. A single worker always gets 0 bits (the
// sequential layout; no concurrent interns to spread). Result is clamped to
// the supported [0, 16] range.
int pick_shard_bits(int num_threads, std::uint64_t expected_states);

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_NODE_STORE_HPP
