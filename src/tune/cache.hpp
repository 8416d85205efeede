// Persistent, content-addressed plan cache for the autotuner.
//
// A tuning result is memoized under a *content key*: the canonical
// serialisation (serialize.hpp) of the machine parameters, the before /
// after partition specs, the fault scenario the tuning honoured, and the
// search-space signature (family restriction + finalist budget).  Equal
// problems therefore hit the same entry on any host; any difference —
// down to a changed tau or an extra failed wire — misses and retunes.
//
// The cache stores the winning *candidate* (a few bytes), not the
// emitted program: plan construction is deterministic, so a tuner hit
// rebuilds a bit-identical `sim::Program` without running the simulation
// engine at all (golden-tested).  The transpose service keeps the
// compiled programs themselves in its own byte-bounded cache
// (serve/program_cache.hpp), so a served hit skips the rebuild as well.
// In memory the cache is a thread-safe LRU; on
// disk it is a versioned store of checksummed entries:
//
//   magic "NCTPLANC" | u32 version | u64 entry count
//   entry := u32 payload length | payload | u64 FNV-1a(payload)
//
// One parser, two policies.  The parser stops at the first damage (bad
// checksum, short read, a length or count the rest of the file cannot
// hold, malformed payload) with a diagnostic, keeping the entries
// decoded before it; it never allocates by an untrusted length.
//  * `PlanCache::load_file` is *tolerant*: it merges that prefix — the
//    worst outcome of cache damage is a retune, never a crash; a bad
//    header or unknown version loads as empty.
//  * `read_store_strict` is the tooling reader (`nct_tune cache check`):
//    it throws the diagnostic (bad magic, version mismatch, truncation,
//    corruption, trailing bytes), so CI can gate on store integrity.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "tune/serialize.hpp"
#include "tune/space.hpp"

namespace nct::tune {

/// On-disk store format version.  Bump on any layout change; old files
/// then read as empty (tolerant path) or fail loudly (strict path).
/// v2: machine serialization carries the topology signature (kind +
/// shape), so plans tuned before topologies existed retune rather than
/// silently matching a differently-wired machine.
inline constexpr std::uint32_t kStoreVersion = 2;

/// A content key: the exact canonical bytes plus their FNV-1a hash (the
/// index; the bytes guard against hash collisions).
struct TuneKey {
  Bytes bytes;
  std::uint64_t hash = 0;
};

/// Lifetime cache counters (one consistent snapshot).  All four survive
/// clear(): they describe the cache's history, not its content.
struct CacheStats {
  std::uint64_t hits = 0;       ///< find() key matches.
  std::uint64_t misses = 0;     ///< find() absences (incl. hash collisions).
  std::uint64_t evictions = 0;  ///< entries dropped by the LRU capacity bound.
  std::uint64_t loads = 0;      ///< store entries actually merged by load_file().
};

/// One memoized tuning decision.
struct CacheEntry {
  Bytes key;  ///< exact key bytes (collision check + tooling).
  Candidate choice;
  double predicted_seconds = 0.0;
  double measured_seconds = 0.0;
  std::string algorithm;
};

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 256);

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }

  /// Lifetime hit/miss counters (find() only).
  std::uint64_t hits() const;
  std::uint64_t misses() const;

  /// All lifetime counters in one consistent snapshot (hits and misses
  /// taken under the same lock, so ratios add up).
  CacheStats stats() const;

  /// Look up a key; a hit refreshes its LRU position.  A hash match with
  /// different key bytes is a miss (collision).
  std::optional<CacheEntry> find(const TuneKey& key);

  /// Insert or overwrite the entry for `key` (MRU position); evicts the
  /// least-recently-used entry beyond capacity.
  void insert(const TuneKey& key, CacheEntry entry);

  /// Drop the entry with this key hash; false if absent.
  bool evict(std::uint64_t hash);

  void clear();

  /// Snapshot of all entries, most- to least-recently used.
  std::vector<CacheEntry> entries() const;

  /// Merge entries from a store file (loaded entries land *behind*
  /// anything already cached, oldest last).  Tolerant: stops at the
  /// first damaged entry and returns how many were loaded; a missing
  /// file, bad magic or unknown version loads 0.  Never throws.
  std::size_t load_file(const std::string& path);

  /// Write every entry to `path` (atomically: temp file + rename), LRU
  /// order reversed so a later load preserves recency.  False on I/O
  /// failure.
  bool save_file(const std::string& path) const;

 private:
  using Lru = std::list<CacheEntry>;

  void insert_locked(CacheEntry entry, bool front);

  mutable std::mutex mu_;
  std::size_t capacity_;
  Lru lru_;  ///< front = most recently used.
  std::unordered_map<std::uint64_t, Lru::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t loads_ = 0;
};

/// The full content of a store file, read strictly.
struct StoreData {
  std::uint32_t version = 0;
  std::vector<CacheEntry> entries;
};

/// Strict store reader for tooling: throws std::runtime_error with a
/// clear message on "cannot open", "bad magic", version mismatch,
/// truncated/corrupt entries and trailing bytes.
StoreData read_store_strict(const std::string& path);

/// Build the content key for one tuning problem.  `faults` may be null
/// (healthy machine — distinct from an *empty* spec only in that both
/// serialise identically, so they share a key by design); the space
/// signature folds in `families` and `max_candidates` so restricted
/// searches do not collide with full ones.
TuneKey make_key(const sim::MachineParams& machine, const cube::PartitionSpec& before,
                 const cube::PartitionSpec& after, const fault::FaultSpec* faults,
                 const SpaceOptions& space);

/// Content key for one *kernel-pipeline stage* tuning problem
/// (src/kernels).  The pipeline `signature` string canonically encodes
/// the kernel's identity and shape (e.g. "hsmm nm=64 p=16 K=4"); the
/// stage index and name pin the position within the composition, so two
/// stages of the same pipeline never collide, and the machine + fault
/// serialisation is shared with make_key.  By convention a stage entry
/// stores the *naive* candidate's measured time in predicted_seconds,
/// so cache hits can still report a naive-vs-tuned ratio.
TuneKey make_pipeline_key(const sim::MachineParams& machine, const std::string& signature,
                          std::size_t stage_index, const std::string& stage_name,
                          const fault::FaultSpec* faults, std::size_t max_candidates);

}  // namespace nct::tune
