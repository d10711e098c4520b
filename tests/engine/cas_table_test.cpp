#include "engine/cas_table.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <thread>
#include <vector>

#include "util/hash.hpp"

namespace rcons::engine {
namespace {

util::U128 key(std::uint64_t i) {
  return util::U128{util::mix64(i), util::mix64(i + 0xabcd'1234ULL)};
}

// Tests that do not exercise reclamation give the table a domain nobody
// brings online and nobody reclaims: swept arrays stay until the table goes.

TEST(CasTableTest, InsertFindAndDuplicates) {
  QsbrDomain domain(1);
  CasTable table(domain);
  EXPECT_TRUE(table.insert(key(1), 11).inserted);
  EXPECT_TRUE(table.insert(key(2), 22).inserted);

  // A duplicate loses and reports the resident value, not its own.
  const CasTable::Found dup = table.insert(key(1), 99);
  EXPECT_FALSE(dup.inserted);
  EXPECT_EQ(dup.value, 11u);

  std::uint64_t value = 0;
  EXPECT_TRUE(table.find(key(2), value));
  EXPECT_EQ(value, 22u);
  EXPECT_TRUE(table.contains(key(1)));
  EXPECT_FALSE(table.contains(key(3)));
  EXPECT_EQ(table.size(), 2u);
}

TEST(CasTableTest, AllZeroKeyIsAnOrdinaryKey) {
  // The slot encoding must not confuse U128{0,0} with an EMPTY slot: presence
  // is carried by the tag, never by the key bytes.
  QsbrDomain domain(1);
  CasTable table(domain);
  EXPECT_TRUE(table.insert(util::U128{0, 0}, 7).inserted);
  std::uint64_t value = 0;
  EXPECT_TRUE(table.find(util::U128{0, 0}, value));
  EXPECT_EQ(value, 7u);
  EXPECT_FALSE(table.insert(util::U128{0, 0}, 8).inserted);
  EXPECT_EQ(table.size(), 1u);
}

TEST(CasTableTest, GrowthKeepsEveryKeyAndValue) {
  QsbrDomain domain(1);
  CasTable table(domain);  // minimal capacity: forces several growth epochs
  constexpr std::uint64_t kKeys = 20'000;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(table.insert(key(i), i).inserted) << i;
  }
  EXPECT_GT(table.rehashes(), 0u);
  EXPECT_EQ(table.size(), kKeys);
  // Every key survived every migration with its original payload.
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    std::uint64_t value = ~std::uint64_t{0};
    ASSERT_TRUE(table.find(key(i), value)) << i;
    ASSERT_EQ(value, i) << i;
  }
  // And duplicates still lose against the migrated originals.
  for (std::uint64_t i = 0; i < kKeys; i += 97) {
    const CasTable::Found dup = table.insert(key(i), ~i);
    EXPECT_FALSE(dup.inserted);
    EXPECT_EQ(dup.value, i);
  }
}

TEST(CasTableTest, PresizedTableNeverGrows) {
  QsbrDomain domain(1);
  CasTable table(domain, /*expected=*/10'000);
  for (std::uint64_t i = 0; i < 10'000; ++i) table.insert(key(i), i);
  EXPECT_EQ(table.size(), 10'000u);
  EXPECT_EQ(table.rehashes(), 0u);
  EXPECT_FALSE(table.migrating());
}

TEST(CasTableTest, CooperativeSweepFinishesUnderDuplicateTraffic) {
  // Helping is driven by the insert path itself — even duplicate inserts
  // migrate a stripe while a sweep is pending, so bounded traffic after a
  // growth must finish the sweep without any dedicated migrator thread.
  QsbrDomain domain(1);
  CasTable table(domain);
  std::uint64_t i = 0;
  while (table.rehashes() == 0) {
    table.insert(key(i), i);
    i += 1;
  }
  for (std::size_t spins = 0; table.migrating() && spins < table.capacity();
       ++spins) {
    table.insert(key(0), 0);  // duplicate: no size change, still helps
  }
  EXPECT_FALSE(table.migrating());
  EXPECT_EQ(table.size(), i);
}

TEST(CasTableTest, InsertWithMaterializesThePayloadExactlyOnce) {
  QsbrDomain domain(1);
  CasTable table(domain);
  int calls = 0;
  const auto make = [&calls] {
    calls += 1;
    return std::uint64_t{42};
  };
  EXPECT_TRUE(table.insert_with(key(5), make).inserted);
  EXPECT_EQ(calls, 1);
  // The duplicate path never materializes a payload.
  EXPECT_FALSE(table.insert_with(key(5), make).inserted);
  EXPECT_EQ(calls, 1);
}

TEST(CasTableTest, ThrowingPayloadLeavesTheKeyAbsentAndTheChainLive) {
  // A payload that throws inside the claim window (the NodeStore arena's
  // bad_alloc) must not leave its slot claimed: a later insert of the same
  // key probes the same chain and would wait on that claim forever.
  QsbrDomain domain(1);
  CasTable table(domain);
  const auto out_of_memory = []() -> std::uint64_t { throw std::bad_alloc(); };
  EXPECT_THROW(table.insert_with(key(5), out_of_memory), std::bad_alloc);
  EXPECT_FALSE(table.contains(key(5)));
  EXPECT_EQ(table.size(), 0u);
  const CasTable::Found retry = table.insert(key(5), 55);
  EXPECT_TRUE(retry.inserted);
  EXPECT_EQ(retry.value, 55u);
  std::uint64_t value = 0;
  EXPECT_TRUE(table.find(key(5), value));
  EXPECT_EQ(value, 55u);
}

TEST(CasTableTest, OpStatsAccumulateCallerSide) {
  QsbrDomain domain(1);
  CasTable table(domain);
  CasTable::OpStats ops;
  for (std::uint64_t i = 0; i < 2'000; ++i) table.insert(key(i), i, &ops);
  EXPECT_GE(ops.probe_ops, 2'000u);  // growth helpers probe too
  EXPECT_GE(ops.probe_total, ops.probe_ops);
  EXPECT_GE(ops.max_probe, 1u);
  // A minimal table growing to 2000 keys swept stripes via this caller.
  EXPECT_GT(ops.migration_stripes, 0u);
}

TEST(CasTableTest, ConcurrentInsertersAgreeOnWinners) {
  // T threads race the same key range with thread-distinct payloads: exactly
  // one insert per key may win, and every loser must observe the winner's
  // payload — the published-slot acquire contract.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 10'000;
  QsbrDomain domain(1);
  CasTable table(domain);
  std::vector<std::uint64_t> wins(kThreads, 0);
  std::vector<CasTable::OpStats> ops(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &table, &wins, &ops] {
      const auto tag = static_cast<std::uint64_t>(t + 1) << 32;
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        const CasTable::Found found =
            table.insert(key(i), tag | i, &ops[static_cast<std::size_t>(t)]);
        if (found.inserted) {
          wins[static_cast<std::size_t>(t)] += 1;
        } else {
          // The resident value must be a complete (tag | i) write by SOME
          // thread for THIS key — a torn or missing payload fails here.
          ASSERT_EQ(found.value & 0xffff'ffffULL, i);
          ASSERT_NE(found.value >> 32, 0u);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::uint64_t total_wins = 0;
  std::uint64_t total_probe_ops = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_wins += wins[static_cast<std::size_t>(t)];
    total_probe_ops += ops[static_cast<std::size_t>(t)].probe_ops;
  }
  EXPECT_EQ(total_wins, kKeys);
  EXPECT_EQ(table.size(), kKeys);
  EXPECT_GE(total_probe_ops, kKeys * kThreads);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    std::uint64_t value = 0;
    ASSERT_TRUE(table.find(key(i), value)) << i;
    ASSERT_EQ(value & 0xffff'ffffULL, i);
  }
}

// One operation's worth of quiescence: announce participant `p` and, when
// swept arrays wait, run a free pass — what NodeStore::quiesce does.
void quiesce(QsbrDomain& domain, int p, CasTable& table) {
  if (domain.quiesce(p)) domain.released(table.reclaim(domain.safe_epoch()));
}

// Takes participant `p` offline and runs a free pass — what
// NodeStore::offline does. The last participant to leave frees every array
// in limbo.
void leave(QsbrDomain& domain, int p, CasTable& table) {
  domain.offline(p);
  domain.released(table.reclaim(domain.safe_epoch()));
}

// Inserts fresh keys from `next` on until the table has grown `growths` times
// and the last sweep has detached its array, quiescing participant `p` after
// every operation when `domain` is given. Returns the next unused key index.
std::uint64_t grow_and_sweep(CasTable& table, std::uint64_t next, std::uint64_t growths,
                             QsbrDomain* domain = nullptr, int p = 0) {
  const std::uint64_t target = table.rehashes() + growths;
  while (table.rehashes() < target || table.migrating()) {
    table.insert(key(next), next);
    next += 1;
    if (domain != nullptr) quiesce(*domain, p, table);
  }
  return next;
}

TEST(CasTableTest, ConcurrentGrowthMigrationStress) {
  // Start minimal so the table must grow many times while all threads are
  // mid-insert: every epoch's seal/tombstone/retry handshake and the shared
  // stripe sweep run under real contention. Disjoint per-thread key ranges
  // make the final size exact. Readers look up keys the writers already
  // inserted while swept arrays are freed under them; every participant
  // quiesces between operations, so frees race live lookups throughout.
  constexpr int kThreads = 8;
  constexpr int kReaders = 2;
  constexpr std::uint64_t kKeysPerThread = 8'000;
  QsbrDomain domain(kThreads + kReaders);
  CasTable table(domain);
  const std::uint64_t first_bytes = table.slot_bytes();
  std::vector<CasTable::OpStats> ops(kThreads);
  std::vector<std::atomic<std::uint64_t>> progress(kThreads);
  for (auto& done : progress) done.store(0, std::memory_order_relaxed);
  std::atomic<int> writing{kThreads};
  for (int p = 0; p < kThreads + kReaders; ++p) domain.online(p);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &table, &ops, &domain, &progress, &writing] {
      const std::uint64_t base = static_cast<std::uint64_t>(t) * kKeysPerThread;
      for (std::uint64_t i = 0; i < kKeysPerThread; ++i) {
        const bool inserted =
            table.insert(key(base + i), base + i, &ops[static_cast<std::size_t>(t)])
                .inserted;
        progress[static_cast<std::size_t>(t)].store(i + 1, std::memory_order_release);
        quiesce(domain, t, table);
        EXPECT_TRUE(inserted) << base + i;
      }
      leave(domain, t, table);
      writing.fetch_sub(1, std::memory_order_release);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([r, &table, &domain, &progress, &writing] {
      const int p = kThreads + r;
      std::uint64_t lookups = 0;
      while (writing.load(std::memory_order_acquire) > 0) {
        const auto t = static_cast<std::size_t>((lookups + r) % kThreads);
        const std::uint64_t done = progress[t].load(std::memory_order_acquire);
        lookups += 1;
        if (done == 0) continue;
        const std::uint64_t k = t * kKeysPerThread + (lookups * 7919) % done;
        std::uint64_t value = 0;
        const bool found = table.find(key(k), value);
        quiesce(domain, p, table);
        ASSERT_TRUE(found) << k;
        ASSERT_EQ(value, k);
      }
      leave(domain, p, table);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(table.size(), kThreads * kKeysPerThread);
  EXPECT_GT(table.rehashes(), 0u);
  std::uint64_t total_stripes = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_stripes += ops[static_cast<std::size_t>(t)].migration_stripes;
  }
  EXPECT_GT(total_stripes, 0u);
  for (std::uint64_t i = 0; i < kThreads * kKeysPerThread; ++i) {
    std::uint64_t value = 0;
    ASSERT_TRUE(table.find(key(i), value)) << i;
    ASSERT_EQ(value, i) << i;
  }
  // Growth holds only the sweeps still pending: duplicate inserts finish
  // them, and once the helper leaves, every sealed array has been freed.
  domain.online(0);
  while (table.migrating()) {
    EXPECT_FALSE(table.insert(key(0), 1).inserted);
    quiesce(domain, 0, table);
  }
  leave(domain, 0, table);
  EXPECT_EQ(table.retired_bytes(), 0u);
  EXPECT_EQ(table.reclaimed_bytes(), table.slot_bytes() - first_bytes);
}

TEST(CasTableTest, QuiescenceFreesEverySweptArray) {
  QsbrDomain domain(1);
  CasTable table(domain);
  const std::uint64_t first_bytes = table.slot_bytes();
  domain.online(0);
  const std::uint64_t keys = grow_and_sweep(table, 0, 5, &domain);
  quiesce(domain, 0, table);
  // Every sealed array (the geometric series below the live one) was swept,
  // detached and freed; nothing is held back.
  EXPECT_EQ(table.retired_bytes(), 0u);
  EXPECT_EQ(table.reclaimed_bytes(), table.slot_bytes() - first_bytes);
  EXPECT_FALSE(domain.quiesce(0));  // nothing left waiting
  for (std::uint64_t i = 0; i < keys; ++i) {
    std::uint64_t value = 0;
    ASSERT_TRUE(table.find(key(i), value)) << i;
    ASSERT_EQ(value, i);
  }
}

TEST(CasTableTest, UnquiescedReaderKeepsTheSweptArrayAlive) {
  // Participant 0 writes and quiesces after every insert; participant 1 is a
  // reader that went online before the growth and has not announced since.
  QsbrDomain domain(2);
  CasTable table(domain);
  domain.online(0);
  domain.online(1);
  std::uint64_t next = 0;
  while (table.rehashes() == 0) {
    table.insert(key(next), next);
    next += 1;
    quiesce(domain, 0, table);
  }
  // Mid-sweep: the reader's lookup walks the sealed array.
  std::uint64_t value = 0;
  ASSERT_TRUE(table.migrating());
  ASSERT_TRUE(table.find(key(0), value));
  next = grow_and_sweep(table, next, 0, &domain, 0);
  quiesce(domain, 0, table);
  const std::uint64_t held = table.retired_bytes();
  EXPECT_GT(held, 0u);
  EXPECT_EQ(table.reclaimed_bytes(), 0u);
  for (std::uint64_t i = 0; i < next; ++i) {
    ASSERT_TRUE(table.find(key(i), value)) << i;
    ASSERT_EQ(value, i);
  }
  // The reader's announcement releases it; the next free pass frees it.
  EXPECT_TRUE(domain.quiesce(1));
  quiesce(domain, 0, table);
  EXPECT_EQ(table.retired_bytes(), 0u);
  EXPECT_EQ(table.reclaimed_bytes(), held);
}

TEST(CasTableTest, WithoutAnnouncementsSweptArraysStayUntilDestruction) {
  // A participant that never announces after the retirements holds every
  // swept array: the table keeps them, as a table nobody reclaims does.
  QsbrDomain domain(1);
  CasTable table(domain);
  const std::uint64_t first_bytes = table.slot_bytes();
  domain.online(0);
  const std::uint64_t keys = grow_and_sweep(table, 0, 4);
  EXPECT_EQ(table.reclaim(domain.safe_epoch()), 0u);
  EXPECT_EQ(table.retired_bytes(), table.slot_bytes() - first_bytes);
  EXPECT_EQ(table.reclaimed_bytes(), 0u);

  std::uint64_t value = 0;
  for (std::uint64_t i = 0; i < keys; ++i) {
    ASSERT_TRUE(table.find(key(i), value)) << i;
    ASSERT_EQ(value, i);
  }
  // The walk for checkpoints sees each key once: swept arrays are out of it.
  std::uint64_t published = 0;
  table.for_each_published([&](util::U128, std::uint64_t) { published += 1; });
  EXPECT_EQ(published, keys);
}

}  // namespace
}  // namespace rcons::engine
