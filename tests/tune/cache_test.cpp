// Plan-cache behaviour: LRU semantics, key collision safety, persistent
// store round-trips, tolerance of corrupt/truncated stores (worst case
// is a retune, never a crash), strict tooling diagnostics, and
// concurrent access.
#include "tune/cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "tune/layouts.hpp"

namespace nct::tune {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "plan_cache_" + name;
}

TuneKey key_of(const std::string& tag) {
  TuneKey k;
  k.bytes.assign(tag.begin(), tag.end());
  k.hash = stable_hash(k.bytes);
  return k;
}

CacheEntry entry_of(const TuneKey& k, double measured, Family f = Family::spt) {
  CacheEntry e;
  e.key = k.bytes;
  e.choice.family = f;
  e.choice.packet_elements = 128;
  e.predicted_seconds = measured * 0.9;
  e.measured_seconds = measured;
  e.algorithm = "test entry";
  return e;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

TEST(PlanCache, FindMissThenHit) {
  PlanCache cache;
  const TuneKey k = key_of("problem-a");
  EXPECT_FALSE(cache.find(k).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(k, entry_of(k, 0.5));
  const auto hit = cache.find(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->measured_seconds, 0.5);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, HashCollisionWithDifferentBytesIsAMiss) {
  PlanCache cache;
  TuneKey a = key_of("collision-a");
  cache.insert(a, entry_of(a, 1.0));
  TuneKey b = key_of("collision-b");
  b.hash = a.hash;  // forced hash collision, different key bytes
  EXPECT_FALSE(cache.find(b).has_value());
  EXPECT_TRUE(cache.find(a).has_value());
}

TEST(PlanCache, EvictsLeastRecentlyUsedBeyondCapacity) {
  PlanCache cache(2);
  const TuneKey k1 = key_of("one"), k2 = key_of("two"), k3 = key_of("three");
  cache.insert(k1, entry_of(k1, 1.0));
  cache.insert(k2, entry_of(k2, 2.0));
  ASSERT_TRUE(cache.find(k1).has_value());  // refresh k1: k2 becomes LRU
  cache.insert(k3, entry_of(k3, 3.0));      // evicts k2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.find(k1).has_value());
  EXPECT_FALSE(cache.find(k2).has_value());
  EXPECT_TRUE(cache.find(k3).has_value());
}

TEST(PlanCache, InsertOverwritesExistingKey) {
  PlanCache cache;
  const TuneKey k = key_of("overwrite");
  cache.insert(k, entry_of(k, 1.0));
  cache.insert(k, entry_of(k, 2.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(k)->measured_seconds, 2.0);
}

TEST(PlanCache, EvictAndClear) {
  PlanCache cache;
  const TuneKey k = key_of("evict-me");
  cache.insert(k, entry_of(k, 1.0));
  EXPECT_FALSE(cache.evict(k.hash + 1));
  EXPECT_TRUE(cache.evict(k.hash));
  EXPECT_EQ(cache.size(), 0u);
  cache.insert(k, entry_of(k, 1.0));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCache, EntriesSnapshotIsMruFirst) {
  PlanCache cache;
  const TuneKey k1 = key_of("a"), k2 = key_of("b");
  cache.insert(k1, entry_of(k1, 1.0));
  cache.insert(k2, entry_of(k2, 2.0));
  cache.find(k1);  // k1 becomes MRU
  const auto snap = cache.entries();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].measured_seconds, 1.0);
  EXPECT_EQ(snap[1].measured_seconds, 2.0);
}

TEST(PlanCacheStore, SaveLoadRoundTripPreservesEntriesAndRecency) {
  const std::string path = temp_path("roundtrip.nct");
  PlanCache cache;
  const TuneKey k1 = key_of("rt-one"), k2 = key_of("rt-two");
  cache.insert(k1, entry_of(k1, 1.0, Family::spt));
  cache.insert(k2, entry_of(k2, 2.0, Family::mpt));
  ASSERT_TRUE(cache.save_file(path));

  PlanCache loaded;
  EXPECT_EQ(loaded.load_file(path), 2u);
  EXPECT_EQ(loaded.size(), 2u);
  const auto e1 = loaded.find(k1);
  ASSERT_TRUE(e1.has_value());
  EXPECT_EQ(e1->choice.family, Family::spt);
  EXPECT_EQ(e1->measured_seconds, 1.0);
  EXPECT_EQ(e1->algorithm, "test entry");
  // MRU order survives the round trip: k2 was most recent at save time.
  PlanCache again;
  again.load_file(path);
  const auto snap = again.entries();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].measured_seconds, 2.0);
}

TEST(PlanCacheStore, LoadMergesBehindExistingEntries) {
  const std::string path = temp_path("merge.nct");
  PlanCache disk;
  const TuneKey kd = key_of("merge-disk");
  disk.insert(kd, entry_of(kd, 1.0));
  ASSERT_TRUE(disk.save_file(path));

  PlanCache cache;
  const TuneKey km = key_of("merge-mem");
  cache.insert(km, entry_of(km, 2.0));
  EXPECT_EQ(cache.load_file(path), 1u);
  const auto snap = cache.entries();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].measured_seconds, 2.0);  // in-memory entry stays MRU
  EXPECT_EQ(snap[1].measured_seconds, 1.0);
}

TEST(PlanCacheStore, InMemoryEntryWinsOnKeyConflict) {
  const std::string path = temp_path("conflict.nct");
  const TuneKey k = key_of("conflict");
  PlanCache disk;
  disk.insert(k, entry_of(k, 1.0));
  ASSERT_TRUE(disk.save_file(path));

  PlanCache cache;
  cache.insert(k, entry_of(k, 9.0));
  cache.load_file(path);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(k)->measured_seconds, 9.0);
}

TEST(PlanCacheStore, MissingFileLoadsNothing) {
  PlanCache cache;
  EXPECT_EQ(cache.load_file(temp_path("does-not-exist.nct")), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheStore, BadMagicLoadsNothing) {
  const std::string path = temp_path("badmagic.nct");
  write_file(path, "definitely not a plan cache store");
  PlanCache cache;
  EXPECT_EQ(cache.load_file(path), 0u);
}

TEST(PlanCacheStore, UnknownVersionLoadsNothing) {
  const std::string path = temp_path("version.nct");
  PlanCache cache;
  const TuneKey k = key_of("versioned");
  cache.insert(k, entry_of(k, 1.0));
  ASSERT_TRUE(cache.save_file(path));
  std::string bytes = read_file(path);
  bytes[8] = 99;  // u32 version lives right after the 8-byte magic
  write_file(path, bytes);
  PlanCache fresh;
  EXPECT_EQ(fresh.load_file(path), 0u);
}

TEST(PlanCacheStore, TruncationStopsAtLastGoodEntry) {
  const std::string path = temp_path("trunc.nct");
  PlanCache cache;
  const TuneKey k1 = key_of("trunc-one"), k2 = key_of("trunc-two");
  cache.insert(k1, entry_of(k1, 1.0));
  cache.insert(k2, entry_of(k2, 2.0));
  ASSERT_TRUE(cache.save_file(path));
  const std::string bytes = read_file(path);
  // Chop the tail: the second entry (saved first = LRU last) is damaged.
  write_file(path, bytes.substr(0, bytes.size() - 7));
  PlanCache fresh;
  const std::size_t loaded = fresh.load_file(path);
  EXPECT_EQ(loaded, 1u);
  EXPECT_EQ(fresh.size(), 1u);
}

TEST(PlanCacheStore, FlippedByteFailsTheChecksum) {
  const std::string path = temp_path("corrupt.nct");
  PlanCache cache;
  const TuneKey k = key_of("corrupt");
  cache.insert(k, entry_of(k, 1.0));
  ASSERT_TRUE(cache.save_file(path));
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x40;  // flip a payload bit
  write_file(path, bytes);
  PlanCache fresh;
  EXPECT_EQ(fresh.load_file(path), 0u);  // damaged entry dropped, no crash
}

TEST(ReadStoreStrict, ReportsEachDamageClassPrecisely) {
  const std::string path = temp_path("strict.nct");
  PlanCache cache;
  const TuneKey k = key_of("strict");
  cache.insert(k, entry_of(k, 1.0));
  ASSERT_TRUE(cache.save_file(path));
  const std::string good = read_file(path);

  // Healthy store reads back.
  const StoreData data = read_store_strict(path);
  EXPECT_EQ(data.version, kStoreVersion);
  ASSERT_EQ(data.entries.size(), 1u);
  EXPECT_EQ(data.entries[0].measured_seconds, 1.0);

  const auto expect_throw = [&](const std::string& bytes, const std::string& needle) {
    write_file(path, bytes);
    try {
      read_store_strict(path);
      FAIL() << "expected throw for: " << needle;
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };

  expect_throw("NOPE", "bad magic");
  std::string ver = good;
  ver[8] = 99;
  expect_throw(ver, "version mismatch");
  expect_throw(good.substr(0, good.size() - 5), "truncated store");
  std::string corrupt = good;
  corrupt[corrupt.size() / 2] ^= 0x01;
  expect_throw(corrupt, "checksum");
  expect_throw(good + "xx", "trailing bytes");
  EXPECT_THROW(read_store_strict(temp_path("no-such-store.nct")), std::runtime_error);
}

/// A store with a valid header declaring `count` entries, then `body`.
std::string store_with(std::uint64_t count, const Bytes& body) {
  ByteWriter head;
  head.u32(kStoreVersion);
  head.u64(count);
  std::string bytes = "NCTPLANC";
  bytes.append(head.bytes().begin(), head.bytes().end());
  bytes.append(body.begin(), body.end());
  return bytes;
}

std::string strict_error(const std::string& path) {
  try {
    read_store_strict(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(PlanCacheStore, HugeEntryLengthIsTruncationNotAnAllocation) {
  // 24 bytes: header plus one entry length of 4 GiB the file cannot hold.
  ByteWriter body;
  body.u32(0xFFFFFFFFu);
  const std::string path = temp_path("huge-len.nct");
  write_file(path, store_with(1, body.bytes()));
  PlanCache cache;
  EXPECT_EQ(cache.load_file(path), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(strict_error(path), "truncated store: entry 0 of 1");
}

TEST(PlanCacheStore, HugeKeyLengthInAChecksummedPayloadLoadsNothing) {
  ByteWriter payload;
  payload.u32(0xFFFFFFFFu);  // key length
  for (int i = 0; i < 16; ++i) payload.u8(0);
  ByteWriter body;
  body.u32(static_cast<std::uint32_t>(payload.bytes().size()));
  for (const unsigned char b : payload.bytes()) body.u8(b);
  body.u64(stable_hash(payload.bytes()));
  const std::string path = temp_path("huge-key.nct");
  write_file(path, store_with(1, body.bytes()));
  PlanCache cache;
  std::size_t loaded = 1;
  EXPECT_NO_THROW(loaded = cache.load_file(path));
  EXPECT_EQ(loaded, 0u);
  EXPECT_EQ(strict_error(path).rfind("corrupt store (", 0), 0u) << strict_error(path);
}

TEST(MakeKey, DiscriminatesEveryInput) {
  const sim::MachineParams ipsc = sim::MachineParams::ipsc(4);
  const SpecPair p = fig_layout_2d(12, 4);
  const SpaceOptions space;
  const TuneKey base = make_key(ipsc, p.first, p.second, nullptr, space);

  // Same inputs -> same key, bit for bit.
  const TuneKey same = make_key(ipsc, p.first, p.second, nullptr, space);
  EXPECT_EQ(base.bytes, same.bytes);
  EXPECT_EQ(base.hash, same.hash);

  // Machine change re-keys.
  EXPECT_NE(base.hash, make_key(sim::MachineParams::cm(4), p.first, p.second, nullptr, space).hash);
  // Spec change re-keys.
  const SpecPair q = fig_layout_2d(14, 4);
  EXPECT_NE(base.hash, make_key(ipsc, q.first, q.second, nullptr, space).hash);
  // A fault spec re-keys (degraded tuning never aliases healthy tuning).
  fault::FaultSpec faults;
  faults.fail_link(0, 1);
  EXPECT_NE(base.hash, make_key(ipsc, p.first, p.second, &faults, space).hash);
  // Space signature re-keys.
  SpaceOptions narrow;
  narrow.families = {Family::spt};
  EXPECT_NE(base.hash, make_key(ipsc, p.first, p.second, nullptr, narrow).hash);
  SpaceOptions small;
  small.max_candidates = 2;
  EXPECT_NE(base.hash, make_key(ipsc, p.first, p.second, nullptr, small).hash);
  // A null fault spec and an empty fault spec are the same problem.
  const fault::FaultSpec empty;
  EXPECT_EQ(base.bytes, make_key(ipsc, p.first, p.second, &empty, space).bytes);
}

TEST(PlanCacheStats, SnapshotCountsHitsMissesAndEvictions) {
  PlanCache cache(1);
  const TuneKey a = key_of("stats-a"), b = key_of("stats-b");
  EXPECT_FALSE(cache.find(a).has_value());  // miss
  cache.insert(a, entry_of(a, 1.0));
  EXPECT_TRUE(cache.find(a).has_value());   // hit
  cache.insert(b, entry_of(b, 2.0));        // capacity 1: evicts a
  const CacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.loads, 0u);
  // The snapshot agrees with the individual accessors.
  EXPECT_EQ(st.hits, cache.hits());
  EXPECT_EQ(st.misses, cache.misses());
  // Lifetime counters survive clear(): they describe history, not content.
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  const CacheStats after = cache.stats();
  EXPECT_EQ(after.hits, 1u);
  EXPECT_EQ(after.misses, 1u);
  EXPECT_EQ(after.evictions, 1u);
}

TEST(PlanCacheStats, LoadsCountOnlyEntriesActuallyMerged) {
  const std::string path = temp_path("stats-loads.nct");
  PlanCache disk;
  const TuneKey k1 = key_of("load-one"), k2 = key_of("load-two");
  disk.insert(k1, entry_of(k1, 1.0));
  disk.insert(k2, entry_of(k2, 2.0));
  ASSERT_TRUE(disk.save_file(path));

  PlanCache cache;
  cache.insert(k1, entry_of(k1, 9.0));    // duplicate of a stored key
  EXPECT_EQ(cache.load_file(path), 2u);   // both entries decoded...
  EXPECT_EQ(cache.stats().loads, 1u);     // ...but only k2 was merged
  EXPECT_EQ(cache.load_file(path), 2u);   // reloading merges nothing new
  EXPECT_EQ(cache.stats().loads, 1u);
}

TEST(PlanCacheStats, TolerantLoadOfDamagedStoreCountsTheSurvivors) {
  const std::string path = temp_path("stats-damaged.nct");
  PlanCache disk;
  const TuneKey k1 = key_of("dmg-one"), k2 = key_of("dmg-two");
  disk.insert(k1, entry_of(k1, 1.0));
  disk.insert(k2, entry_of(k2, 2.0));
  ASSERT_TRUE(disk.save_file(path));
  const std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 7));  // damage the tail

  PlanCache fresh;
  EXPECT_EQ(fresh.load_file(path), 1u);
  const CacheStats st = fresh.stats();
  EXPECT_EQ(st.loads, 1u);  // the retune path sees exactly the survivors
  EXPECT_EQ(st.evictions, 0u);
}

TEST(PlanCache, ConcurrentMixedAccessIsSafe) {
  PlanCache cache(64);
  constexpr int kThreads = 8;
  constexpr int kOps = 200;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&cache, t]() {
      for (int i = 0; i < kOps; ++i) {
        const TuneKey k = key_of("thread-" + std::to_string(t % 4) + "-" +
                                 std::to_string(i % 16));
        if (i % 3 == 0) {
          cache.insert(k, entry_of(k, 1.0 + i));
        } else if (i % 7 == 0) {
          cache.evict(k.hash);
        } else {
          const auto hit = cache.find(k);
          if (hit) {
            EXPECT_EQ(hit->key, k.bytes);
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_LE(cache.size(), 64u);
  const auto snap = cache.entries();  // coherent snapshot after the storm
  for (const CacheEntry& e : snap) EXPECT_FALSE(e.key.empty());
}

TEST(PlanCacheStore, ConcurrentSaveAndLoadAreAtomic) {
  const std::string path = temp_path("concurrent.nct");
  PlanCache seed;
  const TuneKey k = key_of("seed");
  seed.insert(k, entry_of(k, 1.0));
  ASSERT_TRUE(seed.save_file(path));

  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&path, t]() {
      for (int i = 0; i < 25; ++i) {
        if (t % 2 == 0) {
          PlanCache c;
          const TuneKey kk = key_of("writer-" + std::to_string(t));
          c.insert(kk, entry_of(kk, 2.0));
          EXPECT_TRUE(c.save_file(path));
        } else {
          PlanCache c;
          c.load_file(path);  // must never crash or read a torn file
          EXPECT_LE(c.size(), 1u);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  // The file is whole (one of the writers' versions, atomically renamed).
  EXPECT_NO_THROW(read_store_strict(path));
}

}  // namespace
}  // namespace nct::tune
