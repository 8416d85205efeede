// Compiled-program cache for the serving layer: (problem, plan) -> the
// sim::CompiledProgram the dispatcher runs, kept across epochs.
//
// The transpose schedules depend only on the partition pair, the
// machine model, the fault scenario and the chosen candidate, so
// compile(Tuner::build(problem, choice)) is a pure function of the
// problem's content key (tune::make_key: machine, faults, specs, space
// signature) and the candidate.  A problem the server sees again needs
// neither a new plan nor a new compile: the cached program runs
// bit-identically.  A planning rejection (the build or compile threw) is
// memoised too, as an entry without a program, so a fault-severed plan
// serves infeasible again without a rebuild.  Resource exhaustion
// (std::bad_alloc, std::system_error) says nothing about the problem:
// it propagates and is not remembered.
//
// Bounded by bytes: an entry weighs its key bytes plus the program's
// CompiledProgram::heap_bytes().  Least-recently-used entries are
// evicted past the capacity; an entry heavier than the whole capacity is
// not kept (the caller still runs it).  Lookups, inserts and evictions
// happen on the dispatcher in admission order, so the cache content and
// its counters depend only on the request stream.
//
// Not thread-safe: only the server's dispatcher thread touches it.
// Programs are handed out as shared_ptr, so an eviction in mid-cycle
// cannot free a program that a batch of the same cycle still runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <list>
#include <memory>
#include <new>
#include <string>
#include <system_error>
#include <unordered_map>
#include <utility>

#include "sim/compile.hpp"
#include "tune/cache.hpp"
#include "tune/space.hpp"

namespace nct::serve {

/// Lifetime counters plus the current resident weight.
struct ProgramCacheStats {
  std::uint64_t hits = 0;       ///< lookups that found an entry (program or failure).
  std::uint64_t misses = 0;     ///< lookups that built.
  std::uint64_t evictions = 0;  ///< entries dropped by the byte bound.
  std::uint64_t bytes = 0;      ///< summed weight of the entries held now.
};

class ProgramCache {
 public:
  /// Null: planning rejected this (problem, plan).
  using Program = std::shared_ptr<const sim::CompiledProgram>;

  /// The problem's key bytes followed by the candidate's identity
  /// (tune::serialize(ByteWriter&, const Candidate&)).
  static std::string make_key(const tune::TuneKey& problem, const tune::Candidate& choice);

  explicit ProgramCache(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// The program of `key`: the cached entry (refreshed to most recently
  /// used), or else `build()`'s result, recorded.  A build that throws
  /// is recorded as null; one that throws std::bad_alloc or
  /// std::system_error rethrows and records nothing.
  template <class Build>
  Program get(std::string key, Build&& build) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      return it->second->program;
    }
    ++stats_.misses;
    Program program;
    try {
      program = std::forward<Build>(build)();
    } catch (const std::bad_alloc&) {
      throw;
    } catch (const std::system_error&) {
      throw;
    } catch (const std::exception&) {
      // A planning rejection: deterministic, so it is memoised.
    }
    insert(std::move(key), program);
    return program;
  }

  const ProgramCacheStats& stats() const noexcept { return stats_; }
  std::size_t size() const noexcept { return lru_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry;
  using Lru = std::list<Entry>;
  using Index = std::unordered_map<std::string, Lru::iterator>;
  struct Entry {
    Index::iterator slot;  ///< this entry's index node (owns the key).
    Program program;
    std::size_t weight = 0;
  };

  /// Record `program` at the MRU position, then evict least-recently-
  /// used entries past the capacity (an entry heavier than the capacity
  /// is not kept).
  void insert(std::string key, Program program);

  std::size_t capacity_;
  Lru lru_;  ///< front = most recently used.
  Index index_;
  ProgramCacheStats stats_;
};

}  // namespace nct::serve
