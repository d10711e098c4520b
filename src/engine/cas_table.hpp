// Lock-free open-addressing fingerprint table — the NodeStore intern index
// rcons-lint: hot-path
// (engine/node_store.hpp), which doubles as the explorers' visited set.
//
// Every slot carries a 32-bit atomic tag driving a small state machine:
//
//          CAS (claim)            store-release (publish)
//   EMPTY ------------> CLAIMED ------------------------> PUBLISHED
//            |                |
//            |                '--> TOMBSTONE   (claim landed in a freshly
//            '--> (CAS failed:     sealed array; the slot is dead and
//                 another thread   probes walk past it)
//                 owns the slot)
//
// An insert probes linearly over the tags; the key halves and the payload are
// plain (non-atomic) fields written inside the CLAIMED window and made
// visible by the release-publish of the tag, so readers that acquire-load a
// PUBLISHED tag see a complete slot — no mutex anywhere on the insert path,
// and TSan agrees.
//
// Growth is epoch-based and cooperative. When occupancy crosses the load
// threshold, one thread (under a mutex — growth is the cold path, a handful
// of events per run) allocates a double-size array, marks the current one
// `sealed`, and publishes the new array as live. Live inserts then each
// migrate one fixed *stripe* of the sealed array's slots per operation —
// workers share the sweep via an atomic stripe cursor instead of any thread
// stopping the world. Sealed arrays stay readable (their probe chains are
// never broken) until every stripe is migrated, and their memory is retired
// to the table and freed on destruction: bounded by the geometric capacity
// series, i.e. less than one extra copy of the final array.
//
// The seal handshake is the subtle part. A claimer CASes EMPTY→CLAIMED and
// then checks `sealed`; the grower stores `sealed = true` before publishing
// the new live array. Both sides use seq_cst, so for any claim that lands in
// an array a later inserter reaches *as an old array*, the claim is ordered
// before that inserter's tag load — the probe sees at least CLAIMED and
// waits for the claim to resolve (PUBLISHED or TOMBSTONE). A claimer that
// observes `sealed` after winning the CAS reverts its slot to TOMBSTONE and
// retries in the newer array, so no insert is ever lost at an epoch
// boundary and no key is ever published twice.
//
// Liveness at the threshold: while a sweep is pending the threshold growth
// defers, so a stalled migrator (e.g. descheduled on an oversubscribed box)
// can let inserts fill the live array completely. A probe that inspects
// every slot without finding EMPTY reports the array full, and the inserter
// *forces* a growth — stacking a second epoch on the pending one — instead
// of spinning on a table that can never accept its claim.
//
// Probe-length and contention counters accumulate into a caller-owned
// OpStats (one per worker), never into shared cache lines.
#ifndef RCONS_ENGINE_CAS_TABLE_HPP
#define RCONS_ENGINE_CAS_TABLE_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace rcons::engine {

class CasTable {
 public:
  // Per-caller (per-worker) operation counters; callers aggregate them into
  // the run's hot-path statistics. Kept out of the table so the hot path
  // never bounces a shared stats cache line between workers.
  struct OpStats {
    std::uint64_t probe_total = 0;        // slots inspected
    std::uint64_t probe_ops = 0;          // operations that probed
    std::uint64_t max_probe = 0;          // longest single probe sequence
    std::uint64_t cas_retries = 0;        // slot claims lost to another thread
    std::uint64_t migration_stripes = 0;  // growth stripes this caller migrated
  };

  struct Found {
    std::uint64_t value = 0;
    bool inserted = false;  // true when `key` was not present before
  };

  // Pre-sizes for `expected` keys so a run of the anticipated size never
  // grows. 0 = unknown; start minimal and grow cooperatively.
  explicit CasTable(std::uint64_t expected = 0) {
    std::size_t capacity = kMinCapacity;
    while (capacity < kMaxPresize && expected > capacity / 8 * 5) capacity <<= 1;
    auto first = std::make_unique<Array>(capacity);
    live_.store(first.get(), std::memory_order_release);
    arrays_.push_back(std::move(first));
  }

  // Inserts `key -> value` if absent; returns the resident value (the
  // existing one on a duplicate) and whether an insert happened. Thread-safe,
  // lock-free except inside the (rare) growth allocation.
  Found insert(util::U128 key, std::uint64_t value, OpStats* stats = nullptr) {
    return insert_with(key, [value] { return value; }, stats);
  }

  // Like insert, but the payload is materialized only when the key turns out
  // to be absent: `make_value()` runs inside the claimed window, after the
  // duplicate check, exactly once per successful insert. This is what lets
  // the NodeStore stage a record copy only for genuinely new states.
  template <typename F>
  Found insert_with(util::U128 key, F&& make_value, OpStats* stats = nullptr) {
    for (;;) {
      Array* head = live_.load(std::memory_order_acquire);
      if (head->prev.load(std::memory_order_acquire) != nullptr) {
        help_migrate(stats);
        head = live_.load(std::memory_order_acquire);
      }
      // Duplicate check walks the sealed arrays first (oldest data), then the
      // claim walk settles the race in the live array.
      for (Array* old = head->prev.load(std::memory_order_acquire); old != nullptr;
           old = old->prev.load(std::memory_order_acquire)) {
        std::uint64_t existing = 0;
        if (probe_published(*old, key, existing, stats)) return Found{existing, false};
      }
      Claim claim = claim_or_find(*head, key, make_value, stats);
      if (claim.outcome == Claim::kFound) return Found{claim.value, false};
      if (claim.outcome == Claim::kInserted) {
        size_.fetch_add(1, std::memory_order_relaxed);
        maybe_grow(head);
        return Found{claim.value, true};
      }
      if (claim.outcome == Claim::kFull) {
        // The live array has no EMPTY slot left (a stalled migrator blocked
        // the threshold growth while inserts kept landing). Growth cannot
        // wait for a successful claim — no claim can succeed — so force it.
        force_grow(head);
        continue;
      }
      // Claim::kSealed: the array was sealed under us; wait for the grower to
      // publish the replacement, then retry the whole protocol there.
      while (live_.load(std::memory_order_acquire) == head) std::this_thread::yield();
    }
  }

  // True when `key` is present. Safe concurrently with inserts.
  bool contains(util::U128 key) const {
    std::uint64_t ignored = 0;
    return find(key, ignored);
  }

  // Looks `key` up; fills `value` and returns true when present.
  bool find(util::U128 key, std::uint64_t& value) const {
    for (Array* a = live_.load(std::memory_order_acquire); a != nullptr;
         a = a->prev.load(std::memory_order_acquire)) {
      if (probe_published(*a, key, value, nullptr)) return true;
    }
    return false;
  }

  // Keys inserted. Exact at quiescence; a racy snapshot while inserting.
  std::uint64_t size() const { return size_.load(std::memory_order_relaxed); }

  // Growth epochs started.
  std::uint64_t rehashes() const { return rehashes_.load(std::memory_order_relaxed); }

  // True while a sealed array still has unmigrated stripes.
  bool migrating() const {
    Array* head = live_.load(std::memory_order_acquire);
    return head->prev.load(std::memory_order_acquire) != nullptr;
  }

  std::size_t capacity() const {
    return live_.load(std::memory_order_acquire)->capacity;
  }

  // Frees the sealed arrays whose migration sweep has finished (those no
  // longer reachable from the live array); they otherwise stay allocated
  // until destruction. Caller contract: no concurrent operations — a
  // lookup that loaded a `prev` pointer before the sweep detached it may
  // still be probing the array.
  void release_retired() {
    // rcons-lint: allow(hot-path-no-mutex) quiescent maintenance, never per-insert
    std::lock_guard<std::mutex> lock(growth_mu_);
    std::vector<const Array*> chain;
    for (const Array* a = live_.load(std::memory_order_acquire); a != nullptr;
         a = a->prev.load(std::memory_order_acquire)) {
      chain.push_back(a);
    }
    std::erase_if(arrays_, [&](const std::unique_ptr<Array>& array) {
      return std::find(chain.begin(), chain.end(), array.get()) == chain.end();
    });
  }

  // Quiescent iteration for checkpointing: visits every PUBLISHED slot of
  // every epoch array still owned by the table (live and sealed), calling
  // `fn(key, value)`. Caller contract: no concurrent inserts (the engine
  // calls this only while every worker is parked at the pause barrier or
  // after they joined). A key carried over by a partial migration sweep
  // appears in both its sealed and its destination array with the SAME
  // value, so callers needing uniqueness dedup by value.
  template <typename F>
  void for_each_published(F&& fn) {
    // rcons-lint: allow(hot-path-no-mutex) enumeration runs offline (stats/checkpoint), never per-insert
    std::lock_guard<std::mutex> lock(growth_mu_);
    for (const std::unique_ptr<Array>& array : arrays_) {
      for (std::size_t i = 0; i < array->capacity; ++i) {
        const Slot& slot = array->slots[i];
        if (slot.tag.load(std::memory_order_acquire) == kPublished) {
          fn(util::U128{slot.key_lo, slot.key_hi}, slot.value);
        }
      }
    }
  }

 private:
  // Slot tag states. 32-bit so the CAS is narrow and the slot stays 32 bytes.
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kClaimed = 1;
  static constexpr std::uint32_t kPublished = 2;
  static constexpr std::uint32_t kTombstone = 3;

  static constexpr std::size_t kMinCapacity = 16;  // power of two
  // Pre-sizing cap (slots): beyond this the table grows cooperatively
  // instead of committing memory up front.
  static constexpr std::size_t kMaxPresize = std::size_t{1} << 22;
  // Slots per migration stripe: one stripe is copied per insert while a
  // sweep is pending, so a sweep of capacity C completes within C/32 helped
  // inserts — well before the ~0.6*C fresh inserts that would trigger the
  // next growth.
  static constexpr std::size_t kStripeSlots = 32;

  struct Slot {
    std::atomic<std::uint32_t> tag{kEmpty};
    std::uint32_t pad = 0;
    // Plain fields: written inside the CLAIMED window, released by the
    // PUBLISHED tag store, acquired by every tag load that reads them.
    std::uint64_t key_lo = 0;
    std::uint64_t key_hi = 0;
    std::uint64_t value = 0;
  };

  struct Array {
    explicit Array(std::size_t cap)
        : capacity(cap),
          mask(cap - 1),
          num_stripes((cap + kStripeSlots - 1) / kStripeSlots),
          slots(new Slot[cap]()) {}

    const std::size_t capacity;
    const std::size_t mask;
    const std::size_t num_stripes;
    std::unique_ptr<Slot[]> slots;
    // The next-older array whose sweep feeds this chain; cleared (detached
    // from lookups) when that sweep completes. Memory is retired to the
    // table, not freed, so racing readers never chase a dangling pointer.
    std::atomic<Array*> prev{nullptr};
    std::atomic<bool> sealed{false};
    std::atomic<std::size_t> stripe_cursor{0};  // next stripe to claim
    std::atomic<std::size_t> stripes_done{0};
  };

  static std::size_t bucket(util::U128 key, std::size_t mask) {
    return static_cast<std::size_t>(util::U128Hash{}(key)) & mask;
  }

  static void note_probe(OpStats* stats, std::uint64_t probes) {
    if (stats == nullptr) return;
    stats->probe_total += probes;
    stats->probe_ops += 1;
    if (probes > stats->max_probe) stats->max_probe = probes;
  }

  // Waits out a CLAIMED tag (the owner is between its CAS and its publish or
  // tombstone — a handful of plain stores away).
  static std::uint32_t settle(const Slot& slot, std::uint32_t tag) {
    while (tag == kClaimed) {
      std::this_thread::yield();
      tag = slot.tag.load(std::memory_order_seq_cst);
    }
    return tag;
  }

  // Read-only probe of one array. seq_cst tag loads: claims that landed in
  // this array before it sealed are ordered before our load (see the seal
  // handshake in the header comment), so we never conclude "absent" while an
  // in-flight pre-seal claim is about to publish our key.
  static bool probe_published(const Array& a, util::U128 key, std::uint64_t& value,
                              OpStats* stats) {
    std::size_t index = bucket(key, a.mask);
    std::uint64_t probes = 0;
    for (;;) {
      const Slot& slot = a.slots[index];
      if (probes >= a.capacity) {
        // Every slot inspected, no EMPTY and no match: the array filled
        // completely before its (forced) seal. The key is simply absent.
        note_probe(stats, probes);
        return false;
      }
      probes += 1;
      std::uint32_t tag = slot.tag.load(std::memory_order_seq_cst);
      tag = settle(slot, tag);
      if (tag == kEmpty) {
        note_probe(stats, probes);
        return false;
      }
      if (tag == kPublished && slot.key_lo == key.lo && slot.key_hi == key.hi) {
        value = slot.value;
        note_probe(stats, probes);
        return true;
      }
      index = (index + 1) & a.mask;
    }
  }

  struct Claim {
    enum Outcome { kInserted, kFound, kSealed, kFull };
    Outcome outcome = kSealed;
    std::uint64_t value = 0;
  };

  // Probes the live array for `key`, claiming the first EMPTY slot of the
  // chain. The CAS arbitrates racing inserters of the same key: the loser
  // re-reads the slot, waits out the claim, and either finds the key
  // (duplicate) or probes on. Returns kFull after inspecting every slot
  // without a match or an EMPTY — possible only in the pathological window
  // where a pending migration has deferred growth while inserts kept
  // landing; the caller must force a growth or the probe loop would spin.
  template <typename F>
  Claim claim_or_find(Array& a, util::U128 key, F&& make_value, OpStats* stats) {
    std::size_t index = bucket(key, a.mask);
    std::uint64_t probes = 0;
    for (;;) {
      Slot& slot = a.slots[index];
      if (probes >= a.capacity) {
        note_probe(stats, probes);
        return Claim{Claim::kFull, 0};
      }
      probes += 1;
      std::uint32_t tag = slot.tag.load(std::memory_order_acquire);
      for (;;) {
        if (tag == kEmpty) {
          std::uint32_t expected = kEmpty;
          if (slot.tag.compare_exchange_strong(expected, kClaimed,
                                               std::memory_order_seq_cst,
                                               std::memory_order_acquire)) {
            if (a.sealed.load(std::memory_order_seq_cst)) {
              // Claimed a slot in an array that sealed under us: kill the
              // slot and retry in the replacement (see header comment).
              RCONS_DCHECK_MSG(slot.tag.load(std::memory_order_relaxed) == kClaimed,
                               "tombstone transition from a tag we do not own");
              slot.tag.store(kTombstone, std::memory_order_release);
              note_probe(stats, probes);
              return Claim{Claim::kSealed, 0};
            }
            slot.key_lo = key.lo;
            slot.key_hi = key.hi;
            slot.value = make_value();
            // Only the claimer publishes: claimed -> published is the sole
            // legal transition out of a slot we won the CAS for.
            RCONS_DCHECK_MSG(slot.tag.load(std::memory_order_relaxed) == kClaimed,
                             "publish transition from a tag we do not own");
            slot.tag.store(kPublished, std::memory_order_release);
            note_probe(stats, probes);
            return Claim{Claim::kInserted, slot.value};
          }
          if (stats != nullptr) stats->cas_retries += 1;
          tag = expected;  // the failed CAS loaded the current tag
          continue;
        }
        if (tag == kClaimed) {
          tag = settle(slot, tag);
          continue;
        }
        break;  // kPublished or kTombstone
      }
      if (tag == kPublished && slot.key_lo == key.lo && slot.key_hi == key.hi) {
        note_probe(stats, probes);
        return Claim{Claim::kFound, slot.value};
      }
      index = (index + 1) & a.mask;
    }
  }

  // Inserts a slot carried over from sealed array `floor` into the live
  // chain. Deduplicates only against arrays strictly newer than `floor`: a
  // key lives in exactly one sealed array (fresh inserts always checked the
  // whole chain first), so older arrays cannot hold it, and stripe ownership
  // means no other migrator is moving this particular slot.
  void migrate_insert(util::U128 key, std::uint64_t value, const Array* floor,
                      OpStats* stats) {
    for (;;) {
      Array* head = live_.load(std::memory_order_acquire);
      bool duplicate = false;
      for (Array* old = head->prev.load(std::memory_order_acquire);
           old != nullptr && old != floor;
           old = old->prev.load(std::memory_order_acquire)) {
        std::uint64_t existing = 0;
        if (probe_published(*old, key, existing, stats)) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) return;
      Claim claim = claim_or_find(*head, key, [value] { return value; }, stats);
      if (claim.outcome == Claim::kInserted || claim.outcome == Claim::kFound) return;
      if (claim.outcome == Claim::kFull) {
        force_grow(head);
        continue;
      }
      // kSealed: wait for the replacement array, then retry there.
      while (live_.load(std::memory_order_acquire) == head) std::this_thread::yield();
    }
  }

  // Claims and migrates one stripe of the oldest pending sealed array; the
  // last stripe detaches that array from lookups. Called by inserts while a
  // sweep is pending — the cooperative, no-stop-the-world growth path.
  void help_migrate(OpStats* stats) {
    // Walk to the oldest pending array (chains longer than one are rare —
    // they need a growth to trigger before the previous sweep finishes).
    Array* successor = live_.load(std::memory_order_acquire);
    Array* oldest = successor->prev.load(std::memory_order_acquire);
    if (oldest == nullptr) return;
    for (;;) {
      Array* older = oldest->prev.load(std::memory_order_acquire);
      if (older == nullptr) break;
      successor = oldest;
      oldest = older;
    }
    const std::size_t stripe =
        oldest->stripe_cursor.fetch_add(1, std::memory_order_relaxed);
    if (stripe >= oldest->num_stripes) return;  // sweep fully claimed
    const std::size_t begin = stripe * kStripeSlots;
    std::size_t end = begin + kStripeSlots;
    if (end > oldest->capacity) end = oldest->capacity;
    for (std::size_t i = begin; i < end; ++i) {
      Slot& slot = oldest->slots[i];
      std::uint32_t tag = slot.tag.load(std::memory_order_seq_cst);
      tag = settle(slot, tag);
      if (tag != kPublished) continue;
      migrate_insert(util::U128{slot.key_lo, slot.key_hi}, slot.value, oldest, stats);
    }
    if (stats != nullptr) stats->migration_stripes += 1;
    const std::size_t done =
        oldest->stripes_done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (done == oldest->num_stripes) {
      // Every slot is carried over: detach the array from lookups. Its
      // memory stays retired in arrays_ until destruction.
      successor->prev.store(nullptr, std::memory_order_release);
    }
  }

  void maybe_grow(Array* claimed_in) {
    if (size_.load(std::memory_order_relaxed) <= claimed_in->capacity / 8 * 5) return;
    // rcons-lint: allow(hot-path-no-mutex) growth only; inserts reach here after the lock-free size gate
    std::lock_guard<std::mutex> lock(growth_mu_);  // cold path: growth only
    Array* head = live_.load(std::memory_order_relaxed);
    if (head != claimed_in) return;  // someone else already grew
    if (size_.load(std::memory_order_relaxed) <= head->capacity / 8 * 5) return;
    if (head->prev.load(std::memory_order_acquire) != nullptr) {
      // The previous sweep is still pending; inserts keep helping it along
      // and the next threshold crossing re-attempts the growth. Probing
      // stays correct at the (briefly) higher load factor; should the array
      // fill completely before the sweep finishes, the kFull path forces the
      // growth this branch deferred.
      return;
    }
    grow_locked(head);
  }

  // Growth demanded by a kFull probe: the live array has no EMPTY slots, so
  // no insert can succeed until a new epoch exists. Unlike maybe_grow this
  // ignores the load threshold AND a pending prev sweep — stacking a second
  // epoch is safe (help_migrate walks to the oldest pending array, lookups
  // traverse the whole chain, and migrate_insert dedups against every array
  // newer than its floor); refusing to stack would spin forever.
  void force_grow(Array* full) {
    // rcons-lint: allow(hot-path-no-mutex) taken once per array exhaustion, the sanctioned growth path
    std::lock_guard<std::mutex> lock(growth_mu_);
    Array* head = live_.load(std::memory_order_relaxed);
    if (head != full) return;  // someone else already grew past it
    grow_locked(head);
  }

  // Precondition: growth_mu_ held and `head` == live_.
  void grow_locked(Array* head) {
    auto next = std::make_unique<Array>(head->capacity * 2);
    next->prev.store(head, std::memory_order_relaxed);
    rehashes_.fetch_add(1, std::memory_order_relaxed);
    // Order matters: seal first, then publish. A claimer that slipped into
    // `head` before the seal publishes normally and is visible to every
    // later prober (seq_cst handshake); one that reads the seal after its
    // CAS tombstones itself and retries in `next`.
    head->sealed.store(true, std::memory_order_seq_cst);
    Array* raw = next.get();
    arrays_.push_back(std::move(next));
    live_.store(raw, std::memory_order_seq_cst);
  }

  std::atomic<Array*> live_{nullptr};
  std::atomic<std::uint64_t> size_{0};
  std::atomic<std::uint64_t> rehashes_{0};
  // rcons-lint: allow(hot-path-no-mutex) serializes growth (cold); never taken by inserts
  std::mutex growth_mu_;
  std::vector<std::unique_ptr<Array>> arrays_;  // guarded by growth_mu_
};

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_CAS_TABLE_HPP
