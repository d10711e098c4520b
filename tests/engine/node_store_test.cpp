// Unit tests of the interned node representation: NodeStore intern/fetch
// round trips, load statistics and shard_bits tuning, NodeCodec
// encode/decode inversion (including the fingerprinted prefix unpacking to
// exactly engine::encode_node), the record packer, and the Canonicalizer's
// symmetry reduction.
#include "engine/node_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "engine/expand.hpp"
#include "rc/naive_register.hpp"
#include "rc/team_consensus.hpp"
#include "typesys/zoo.hpp"
#include "util/rng.hpp"

namespace rcons::engine {
namespace {

util::U128 key(std::uint64_t i) {
  return util::U128{util::mix64(i), util::mix64(i + 0x9876ULL)};
}

std::vector<typesys::Value> record_of(std::uint64_t i, std::size_t length) {
  std::vector<typesys::Value> record;
  for (std::size_t k = 0; k < length; ++k) {
    record.push_back(static_cast<typesys::Value>(i * 100 + k));
  }
  return record;
}

TEST(NodeStoreTest, InternRoundTripsRecords) {
  NodeStore store(2);
  std::vector<NodeStore::NodeId> ids;
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto interned = store.intern(key(i), record_of(i, 5 + i % 7));
    EXPECT_TRUE(interned.inserted);
    ids.push_back(interned.id);
  }
  EXPECT_EQ(store.size(), 50u);

  std::vector<typesys::Value> fetched;
  for (std::uint64_t i = 0; i < 50; ++i) {
    store.fetch(ids[i], fetched);
    EXPECT_EQ(fetched, record_of(i, 5 + i % 7)) << "record " << i;
  }
}

TEST(NodeStoreTest, DuplicateInternReturnsExistingId) {
  NodeStore store(0);
  const auto first = store.intern(key(7), record_of(7, 4));
  const auto second = store.intern(key(7), record_of(7, 4));
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(second.inserted);
  EXPECT_EQ(first.id, second.id);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().duplicate_hits, 1u);
}

TEST(NodeStoreTest, StatsCountNodesAndBytes) {
  NodeStore store(1);
  store.intern(key(1), record_of(1, 10));
  store.intern(key(2), record_of(2, 6));
  const NodeStore::Stats stats = store.stats();
  EXPECT_EQ(stats.nodes, 2u);
  EXPECT_EQ(stats.value_bytes, 16u * sizeof(typesys::Value));
  const auto load = store.load_stats();
  EXPECT_EQ(load.total, 2u);
}

TEST(NodeStoreTest, LoadStatsTrackOccupancyAndDuplicates) {
  NodeStore store(3);
  EXPECT_EQ(store.num_shards(), 8);
  for (std::uint64_t i = 0; i < 1000; ++i) store.intern(key(i), record_of(i, 2));
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(store.intern(key(i), record_of(i, 2)).inserted);
  }
  const NodeStore::LoadStats stats = store.load_stats();
  EXPECT_EQ(stats.total, 1000u);
  EXPECT_EQ(stats.duplicate_inserts, 10u);
  EXPECT_GE(stats.max_shard, stats.min_shard);
  // Mixed keys should spread roughly evenly: no shard more than 2x the mean.
  EXPECT_LT(stats.imbalance, 2.0);
}

TEST(NodeStoreTest, ProbeStatsAccumulateCallerSide) {
  // Probe work is tallied in the caller's OpStats (the lock-free index keeps
  // no shared counters a hot intern would have to touch).
  NodeStore store(2);
  CasTable::OpStats ops;
  for (std::uint64_t i = 0; i < 500; ++i) store.intern(key(i), record_of(i, 1), 0, &ops);
  EXPECT_GE(ops.probe_ops, 500u);
  EXPECT_GE(ops.probe_total, ops.probe_ops);
  EXPECT_GE(ops.max_probe, 1u);
  // 500 keys over 4 minimally-sized shards must have grown incrementally.
  EXPECT_GT(store.load_stats().rehashes, 0u);
}

TEST(NodeStoreTest, PresizingAvoidsRehashes) {
  NodeStore store(2, /*expected_states=*/10'000);
  for (std::uint64_t i = 0; i < 10'000; ++i) store.intern(key(i), record_of(i, 1));
  EXPECT_EQ(store.size(), 10'000u);
  EXPECT_EQ(store.load_stats().rehashes, 0u);
}

TEST(NodeStoreTest, ConcurrentInternsAgreeOnWinners) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 2000;
  // One bump arena per thread: arenas are single-owner by contract (the
  // explorers hand each worker its own index), so racing threads must not
  // share arena 0.
  NodeStore store(4, /*expected_states=*/0, /*num_arenas=*/kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        store.intern(key(i), record_of(i, 3), t);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(store.size(), kKeys);
  EXPECT_EQ(store.stats().duplicate_hits, (kThreads - 1) * kKeys);

  std::vector<typesys::Value> fetched;
  const auto again = store.intern(key(123), record_of(123, 3));
  EXPECT_FALSE(again.inserted);
  store.fetch(again.id, fetched);
  EXPECT_EQ(fetched, record_of(123, 3));
}

TEST(NodeStoreTest, QuiescentArenasFreeSweptIndexArrays) {
  // Each thread owns an arena, goes online, and announces a quiescent point
  // after every intern — the engine worker's protocol. Swept index arrays are
  // freed while the threads still intern. A second, all-duplicate pass after
  // every key is in finishes every pending sweep (each intern helps one
  // stripe), so once the last arena goes offline growth holds nothing.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 6000;
  NodeStore store(2, /*expected_states=*/0, /*num_arenas=*/kThreads);
  const std::uint64_t first_bytes = store.stats().slot_bytes;
  std::atomic<int> inserting{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &inserting, t] {
      store.online(t);
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        store.intern(key(i), record_of(i, 2), t);
        store.quiesce(t);
      }
      inserting.fetch_sub(1, std::memory_order_acq_rel);
      while (inserting.load(std::memory_order_acquire) > 0) {
        store.quiesce(t);
        std::this_thread::yield();
      }
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        EXPECT_FALSE(store.intern(key(i), record_of(i, 2), t).inserted);
        store.quiesce(t);
      }
      store.offline(t);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const NodeStore::Stats stats = store.stats();
  EXPECT_EQ(stats.nodes, kKeys);
  EXPECT_GT(stats.rehashes, 0u);
  EXPECT_EQ(stats.retired_bytes, 0u);
  EXPECT_EQ(stats.reclaimed_bytes, stats.slot_bytes - first_bytes);
  // The checkpoint walk yields every record exactly once, intact.
  std::vector<typesys::Value> firsts;
  store.for_each_record(
      [&](util::U128, const typesys::Value* values, std::uint32_t length) {
        ASSERT_EQ(length, 2u);
        EXPECT_EQ(values[1], values[0] + 1);
        firsts.push_back(values[0]);
      });
  std::sort(firsts.begin(), firsts.end());
  ASSERT_EQ(firsts.size(), kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(firsts[i], static_cast<typesys::Value>(i * 100)) << i;
  }
}

TEST(NodeStoreTest, StoreNobodyBringsOnlineKeepsSweptArrays) {
  // A single-threaded caller that never announces (the benchmark's phase
  // replay, most tests): swept arrays stay held until the store goes away.
  NodeStore store(0);
  const std::uint64_t first_bytes = store.stats().slot_bytes;
  for (std::uint64_t i = 0; i < 3000; ++i) store.intern(key(i), record_of(i, 1));
  const NodeStore::Stats stats = store.stats();
  EXPECT_GT(stats.rehashes, 0u);
  EXPECT_EQ(stats.retired_bytes, stats.slot_bytes - first_bytes);
  EXPECT_EQ(stats.reclaimed_bytes, 0u);
}

// Encode/decode must be mutually inverse, and the record's prefix must
// unpack to exactly encode_node() of the same node — the full-record dedup
// key of the reference explorer the differential test compares with — while
// the fingerprint is FpStream over exactly the packed prefix words.
TEST(NodeCodecTest, EncodeDecodeRoundTripsAndPrefixIsEncodeNode) {
  rc::NaiveRegisterSystem system = rc::make_naive_register_system(2);
  Node root = make_root(system.memory, system.processes);

  sim::ExplorerConfig config;
  config.crash_budget = 1;

  // Drive the root into a nontrivial state: p0 steps, p1 steps, p0 crashes.
  Node state = root;
  EXPECT_FALSE(apply_event(state, Event{Event::Kind::kStep, 0}, config));
  EXPECT_FALSE(apply_event(state, Event{Event::Kind::kStep, 1}, config));
  EXPECT_FALSE(apply_event(state, Event{Event::Kind::kCrash, 0}, config));

  NodeCodec codec;
  std::vector<typesys::Value> record;
  const NodeCodec::Encoded encoded = codec.encode(state, record);
  EXPECT_FALSE(encoded.permuted);

  std::vector<typesys::Value> full;
  encode_node(state, full);
  std::vector<typesys::Value> image;
  const std::size_t n = state.processes.size();
  ASSERT_EQ(unpack_record(record.data(), record.size(), n, image), full.size());
  ASSERT_EQ(image.size(), full.size() + n);
  EXPECT_TRUE(std::equal(full.begin(), full.end(), image.begin()));
  EXPECT_TRUE(std::equal(state.steps_in_run.begin(), state.steps_in_run.end(),
                         image.begin() + static_cast<std::ptrdiff_t>(full.size())));

  std::vector<typesys::Value> packed_prefix;
  const std::size_t prefix_words = pack_record(full.data(), full.size(), 0, packed_prefix);
  ASSERT_EQ(prefix_words, packed_prefix.size());
  ASSERT_EQ(encoded.fingerprint_length, packed_prefix.size());
  ASSERT_LT(encoded.fingerprint_length, record.size());  // the sidecar follows
  EXPECT_TRUE(std::equal(packed_prefix.begin(), packed_prefix.end(), record.begin()));
  FpStream fp;
  fp.absorb(record.data(), encoded.fingerprint_length);
  EXPECT_EQ(encoded.fingerprint, fp.finish(encoded.fingerprint_length));

  // Decode into a scratch node that currently holds a different state.
  Node scratch = root;
  codec.decode(record.data(), record.size(), scratch);
  EXPECT_EQ(scratch.crashes_used, state.crashes_used);
  EXPECT_EQ(scratch.done, state.done);
  EXPECT_EQ(scratch.steps_in_run, state.steps_in_run);
  EXPECT_EQ(scratch.decisions, state.decisions);

  // Re-encoding the decoded node reproduces the identical record.
  std::vector<typesys::Value> record_again;
  const NodeCodec::Encoded encoded_again = codec.encode(scratch, record_again);
  EXPECT_EQ(record_again, record);
  EXPECT_EQ(encoded_again.fingerprint, encoded.fingerprint);

  // A record cut by a word no longer decodes.
  Node cut = root;
  EXPECT_DEATH(codec.decode(record.data(), record.size() - 1, cut), "truncated node record");
}

// --- the record packer ------------------------------------------------------

std::vector<typesys::Value> pack(const std::vector<typesys::Value>& values,
                                 std::size_t sidecar_count = 0) {
  std::vector<typesys::Value> words;
  pack_record(values.data(), values.size() - sidecar_count, sidecar_count, words);
  return words;
}

std::vector<typesys::Value> unpack(const std::vector<typesys::Value>& words,
                                   std::size_t sidecar_count = 0) {
  std::vector<typesys::Value> values;
  unpack_record(words.data(), words.size(), sidecar_count, values);
  return values;
}

util::U128 prefix_fingerprint(const std::vector<typesys::Value>& values) {
  std::vector<typesys::Value> words;
  const std::size_t prefix_words = pack_record(values.data(), values.size(), 0, words);
  return fingerprint_values(words.data(), prefix_words);
}

const std::vector<typesys::Value> kEdgeValues = {
    0,  1,   -1,  63, -63, 64, -64, 101, 202, typesys::kBottom, typesys::kAck,
    typesys::kBottom - 1, typesys::kBottom + 1, INT64_MIN, INT64_MAX};

TEST(RecordPackTest, EdgeValuesRoundTrip) {
  for (const typesys::Value v : kEdgeValues) {
    EXPECT_EQ(unpack(pack({v})), std::vector<typesys::Value>{v}) << v;
    EXPECT_EQ(unpack(pack({v, v}, 1), 1), (std::vector<typesys::Value>{v, v})) << v;
  }
  EXPECT_EQ(unpack(pack(kEdgeValues)), kEdgeValues);
  EXPECT_EQ(unpack(pack(kEdgeValues, 4), 4), kEdgeValues);
  EXPECT_EQ(unpack(pack({})), std::vector<typesys::Value>{});
}

TEST(RecordPackTest, BottomAckAndSmallValuesTakeOneByte) {
  // The count byte plus seven one-byte codes fill exactly one word.
  for (const typesys::Value v : {typesys::kBottom, typesys::kAck, typesys::Value{0},
                                 typesys::Value{62}, typesys::Value{-63}}) {
    EXPECT_EQ(pack(std::vector<typesys::Value>(7, v)).size(), 1u) << v;
  }
  EXPECT_EQ(pack(std::vector<typesys::Value>(7, 63)).size(), 2u);
  // One word per record part: the sidecar never shares the prefix's words.
  EXPECT_EQ(pack({1, 2}, 1).size(), 2u);
}

TEST(RecordPackTest, SeededRecordsRoundTrip) {
  util::Rng rng(20260417);
  for (int round = 0; round < 10'000; ++round) {
    std::vector<typesys::Value> values(rng.below(48));
    for (typesys::Value& v : values) {
      switch (rng.below(4)) {
        case 0:
          v = static_cast<typesys::Value>(rng.below(256)) - 128;
          break;
        case 1:
          v = kEdgeValues[rng.below(kEdgeValues.size())];
          break;
        case 2:
          v = static_cast<typesys::Value>(rng.next() >> rng.below(64));
          break;
        default:
          v = static_cast<typesys::Value>(rng.next());
          break;
      }
    }
    const std::size_t sidecar = rng.below(values.size() + 1);
    std::vector<typesys::Value> image;
    const std::vector<typesys::Value> words = pack(values, sidecar);
    ASSERT_EQ(unpack_record(words.data(), words.size(), sidecar, image),
              values.size() - sidecar)
        << "round " << round;
    ASSERT_EQ(image, values) << "round " << round;
  }
}

TEST(RecordPackTest, TrailingZeroIsNotPadding) {
  // A 0 value codes as a byte the zero padding also holds; the leading count
  // keeps the two prefixes apart, in their words and in their fingerprints.
  const std::vector<std::pair<std::vector<typesys::Value>, std::vector<typesys::Value>>>
      pairs = {{{}, {0}}, {{1, 2}, {1, 2, 0}}, {{5, 6, 7, 8, 9, 10}, {5, 6, 7, 8, 9, 10, 0}}};
  for (const auto& [shorter, longer] : pairs) {
    EXPECT_NE(pack(shorter), pack(longer)) << shorter.size();
    EXPECT_NE(prefix_fingerprint(shorter), prefix_fingerprint(longer)) << shorter.size();
  }
}

TEST(RecordPackTest, TruncatedRecordsDie) {
  // Twenty two-byte codes span six words; five of them end mid-prefix.
  const std::vector<typesys::Value> words = pack(std::vector<typesys::Value>(20, 101));
  ASSERT_EQ(words.size(), 6u);
  // Exact-size copies, so a read past the end is a heap overflow under ASan.
  for (std::size_t keep = 0; keep < words.size(); ++keep) {
    const std::vector<typesys::Value> cut(words.begin(),
                                          words.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_DEATH(unpack(cut), "truncated node record") << keep;
  }
  // A missing sidecar is a truncation too.
  EXPECT_DEATH(unpack(pack({1, 2}), 1), "truncated node record");
  // Count 1, then a varint whose seven bytes all continue past the end.
  const std::vector<typesys::Value> unterminated = {
      static_cast<typesys::Value>(0xffffffffffffff01ULL)};
  EXPECT_DEATH(unpack(unterminated), "truncated node record");
}

// Two processes with the same program and input are interchangeable: states
// that differ only by swapping them must canonicalize to one fingerprint.
TEST(CanonicalizerTest, SymmetricStatesFingerprintIdentically) {
  // Both processes propose the same value — identical programs.
  sim::Memory memory;
  const sim::RegId reg = memory.add_register();
  std::vector<sim::Process> processes;
  processes.emplace_back(rc::NaiveRegisterProgram(reg, 1));
  processes.emplace_back(rc::NaiveRegisterProgram(reg, 1));
  Node root = make_root(memory, processes);

  sim::ExplorerConfig config;
  config.crash_budget = 0;

  Node stepped_p0 = root;
  EXPECT_FALSE(apply_event(stepped_p0, Event{Event::Kind::kStep, 0}, config));
  Node stepped_p1 = root;
  EXPECT_FALSE(apply_event(stepped_p1, Event{Event::Kind::kStep, 1}, config));

  const std::vector<int> classes = {0, 0};
  NodeCodec codec(classes);
  std::vector<typesys::Value> record_p0;
  std::vector<typesys::Value> record_p1;
  const NodeCodec::Encoded a = codec.encode(stepped_p0, record_p0);
  const NodeCodec::Encoded b = codec.encode(stepped_p1, record_p1);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(record_p0, record_p1);
  // Exactly one of the two orientations needed a permutation.
  EXPECT_NE(a.permuted, b.permuted);

  // Without the declaration the two states stay distinct.
  NodeCodec identity;
  std::vector<typesys::Value> raw_p0;
  std::vector<typesys::Value> raw_p1;
  EXPECT_NE(identity.encode(stepped_p0, raw_p0).fingerprint,
            identity.encode(stepped_p1, raw_p1).fingerprint);

  // The root is symmetric already: no permutation, no "hit".
  std::vector<typesys::Value> root_record;
  EXPECT_FALSE(codec.encode(root, root_record).permuted);
}

// Processes in different classes must never be permuted, even if their
// blocks would sort differently.
TEST(CanonicalizerTest, DifferentClassesAreNeverMixed) {
  sim::Memory memory;
  const sim::RegId reg = memory.add_register();
  std::vector<sim::Process> processes;
  processes.emplace_back(rc::NaiveRegisterProgram(reg, 1));
  processes.emplace_back(rc::NaiveRegisterProgram(reg, 2));
  Node root = make_root(memory, processes);

  sim::ExplorerConfig config;
  config.crash_budget = 0;

  Node stepped_p0 = root;
  EXPECT_FALSE(apply_event(stepped_p0, Event{Event::Kind::kStep, 0}, config));
  Node stepped_p1 = root;
  EXPECT_FALSE(apply_event(stepped_p1, Event{Event::Kind::kStep, 1}, config));

  const std::vector<int> classes = {0, 1};  // distinct inputs → distinct classes
  NodeCodec codec(classes);
  std::vector<typesys::Value> record_p0;
  std::vector<typesys::Value> record_p1;
  const NodeCodec::Encoded a = codec.encode(stepped_p0, record_p0);
  const NodeCodec::Encoded b = codec.encode(stepped_p1, record_p1);
  EXPECT_NE(a.fingerprint, b.fingerprint);
  EXPECT_FALSE(a.permuted);
  EXPECT_FALSE(b.permuted);
}

TEST(NodeCodecTest, TeamConsensusSystemsDeclareUsableSymmetry) {
  // Sn(4) with 4 roles: same-team roles share the witness op for S_n (only
  // opA/opB exist), so at least one class has two members and the explorers
  // can canonicalize. This is the bench's acceptance scenario.
  auto type = typesys::make_type("Sn(4)");
  ASSERT_NE(type, nullptr);
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, 4, 101, 202);
  ASSERT_EQ(system.symmetry_classes.size(), 4u);

  std::vector<int> class_sizes(system.symmetry_classes.size(), 0);
  for (const int cls : system.symmetry_classes) {
    ASSERT_GE(cls, 0);
    ASSERT_LT(cls, static_cast<int>(class_sizes.size()));
    class_sizes[static_cast<std::size_t>(cls)] += 1;
  }
  int largest = 0;
  for (const int size : class_sizes) largest = std::max(largest, size);
  EXPECT_GE(largest, 2) << "no interchangeable roles — canonicalization inert";
}

TEST(PickShardBitsTest, SingleWorkerGetsSequentialLayout) {
  EXPECT_EQ(pick_shard_bits(1, 0), 0);
  EXPECT_EQ(pick_shard_bits(1, 1'000'000'000), 0);
  EXPECT_EQ(pick_shard_bits(0, 1'000'000), 0);
}

TEST(PickShardBitsTest, ContentionBoundScalesWithThreads) {
  // Unknown state space: shards >= 8 * threads, rounded up to a power of two.
  EXPECT_EQ(pick_shard_bits(2, 0), 4);    // 16 shards
  EXPECT_EQ(pick_shard_bits(4, 0), 5);    // 32 shards
  EXPECT_EQ(pick_shard_bits(8, 0), 6);    // 64 shards
  EXPECT_EQ(pick_shard_bits(16, 0), 7);   // 128 shards
  EXPECT_EQ(pick_shard_bits(64, 0), 9);   // 512 shards
  // Monotone in the thread count.
  int previous = 0;
  for (int threads = 1; threads <= 128; threads *= 2) {
    const int bits = pick_shard_bits(threads, 0);
    EXPECT_GE(bits, previous) << threads;
    previous = bits;
  }
}

TEST(PickShardBitsTest, OccupancyCapShrinksSmallStateSpaces) {
  // A 1000-state space should not be spread over more than ~1000/64 shards.
  EXPECT_LE(pick_shard_bits(8, 1000), 4);
  // A tiny space degenerates to very few shards no matter the thread count.
  EXPECT_EQ(pick_shard_bits(64, 100), 0);
  // A huge space leaves the contention bound in charge.
  EXPECT_EQ(pick_shard_bits(8, 100'000'000), 6);
}

TEST(PickShardBitsTest, ResultAlwaysWithinSupportedRange) {
  for (const int threads : {1, 2, 7, 33, 1000, 100'000}) {
    for (const std::uint64_t states : {std::uint64_t{0}, std::uint64_t{1},
                                       std::uint64_t{1'000'000},
                                       ~std::uint64_t{0}}) {
      const int bits = pick_shard_bits(threads, states);
      EXPECT_GE(bits, 0) << threads << " " << states;
      EXPECT_LE(bits, 16) << threads << " " << states;
    }
  }
}

}  // namespace
}  // namespace rcons::engine
