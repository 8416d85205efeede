#include "tune/cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace nct::tune {

namespace {

constexpr char kMagic[8] = {'N', 'C', 'T', 'P', 'L', 'A', 'N', 'C'};

Bytes encode_entry(const CacheEntry& e) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(e.key.size()));
  for (const unsigned char b : e.key) w.u8(b);
  serialize(w, e.choice);
  w.f64(e.choice.predicted_seconds);
  w.f64(e.predicted_seconds);
  w.f64(e.measured_seconds);
  w.str(e.algorithm);
  return w.take();
}

CacheEntry decode_entry(const Bytes& payload) {
  ByteReader r(payload);
  CacheEntry e;
  const std::uint32_t key_len = r.count(1);
  e.key.reserve(key_len);
  for (std::uint32_t i = 0; i < key_len; ++i) e.key.push_back(r.u8());
  e.choice = deserialize_candidate(r);
  e.choice.predicted_seconds = r.f64();
  e.predicted_seconds = r.f64();
  e.measured_seconds = r.f64();
  e.algorithm = r.str();
  if (!r.done()) throw SerializeError("trailing bytes in entry payload");
  return e;
}

/// The one store parser, shared by both policies.  Returns "" for a
/// clean store, or else the first diagnostic; every entry decoded before
/// it stays in `data.entries`.  `data.version` equals kStoreVersion iff
/// the header (magic, version, count) was sound.
std::string read_store(const std::string& path, StoreData& data) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) return "cannot open " + path;
  const std::streamoff size = is.tellg();
  is.seekg(0);
  char magic[8] = {};
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return "bad magic (not a plan-cache store)";
  unsigned char head[12] = {};
  is.read(reinterpret_cast<char*>(head), sizeof(head));
  if (!is) return "truncated store header";
  ByteReader hr(head, sizeof(head));
  data.version = hr.u32();
  if (data.version != kStoreVersion) {
    std::ostringstream msg;
    msg << "version mismatch: store is v" << data.version << ", reader expects v"
        << kStoreVersion;
    return msg.str();
  }
  const std::uint64_t count = hr.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto where = [&] {
      return "entry " + std::to_string(i) + " of " + std::to_string(count);
    };
    unsigned char len_buf[4] = {};
    is.read(reinterpret_cast<char*>(len_buf), sizeof(len_buf));
    if (!is) return "truncated store: " + where();
    const std::uint32_t len = ByteReader(len_buf, 4).u32();
    // The length is untrusted: never allocate past the end of the file.
    if (static_cast<std::streamoff>(len) > size - static_cast<std::streamoff>(is.tellg()))
      return "truncated store: " + where();
    Bytes payload(len);
    is.read(reinterpret_cast<char*>(payload.data()), static_cast<std::streamsize>(len));
    unsigned char sum_buf[8] = {};
    is.read(reinterpret_cast<char*>(sum_buf), sizeof(sum_buf));
    if (!is) return "truncated store: " + where();  // short payload or checksum
    if (ByteReader(sum_buf, 8).u64() != stable_hash(payload))
      return "corrupt store (checksum mismatch): " + where();
    try {
      data.entries.push_back(decode_entry(payload));
    } catch (const SerializeError& e) {
      return "corrupt store (" + std::string(e.what()) + "): " + where();
    }
  }
  if (is.peek() != std::ifstream::traits_type::eof()) return "trailing bytes after last entry";
  return "";
}

}  // namespace

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

std::size_t PlanCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::uint64_t PlanCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t PlanCache::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

CacheStats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return CacheStats{hits_, misses_, evictions_, loads_};
}

std::optional<CacheEntry> PlanCache::find(const TuneKey& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key.hash);
  if (it == index_.end() || it->second->key != key.bytes) {
    misses_ += 1;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  hits_ += 1;
  return *it->second;
}

void PlanCache::insert_locked(CacheEntry entry, bool front) {
  const std::uint64_t hash = stable_hash(entry.key);
  const auto it = index_.find(hash);
  if (it != index_.end()) {
    *it->second = std::move(entry);
    if (front) lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (front) {
    lru_.push_front(std::move(entry));
    index_[hash] = lru_.begin();
  } else {
    lru_.push_back(std::move(entry));
    index_[hash] = std::prev(lru_.end());
  }
  while (lru_.size() > capacity_) {
    index_.erase(stable_hash(lru_.back().key));
    lru_.pop_back();
    evictions_ += 1;
  }
}

void PlanCache::insert(const TuneKey& key, CacheEntry entry) {
  entry.key = key.bytes;
  const std::lock_guard<std::mutex> lock(mu_);
  insert_locked(std::move(entry), /*front=*/true);
}

bool PlanCache::evict(std::uint64_t hash) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(hash);
  if (it == index_.end()) return false;
  lru_.erase(it->second);
  index_.erase(it);
  return true;
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

std::vector<CacheEntry> PlanCache::entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {lru_.begin(), lru_.end()};
}

std::size_t PlanCache::load_file(const std::string& path) {
  StoreData data;
  read_store(path, data);  // a damaged entry ends the load; keep the prefix
  if (data.version != kStoreVersion) return 0;  // unreadable or unknown: retune

  const std::lock_guard<std::mutex> lock(mu_);
  // Stored MRU-first; appending in order keeps recency, behind whatever
  // the cache already holds.
  // `loads` counts entries actually merged: duplicates the in-memory
  // cache already holds do not inflate the counter, so a reload after a
  // tolerant-read retune reports only the genuinely recovered entries.
  std::size_t merged = 0;
  for (auto& e : data.entries) {
    if (index_.count(stable_hash(e.key)) != 0) continue;  // in-memory wins
    insert_locked(std::move(e), /*front=*/false);
    merged += 1;
  }
  loads_ += merged;
  return data.entries.size();
}

bool PlanCache::save_file(const std::string& path) const {
  std::vector<CacheEntry> snapshot = entries();
  // The temp name must be unique per call: concurrent saves to the same
  // store would otherwise truncate each other's temp file mid-write and
  // rename a torn store into place.
  static std::atomic<std::uint64_t> save_seq{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<unsigned long>(::getpid())) + "." +
                          std::to_string(save_seq.fetch_add(1));
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(kMagic, sizeof(kMagic));
    ByteWriter head;
    head.u32(kStoreVersion);
    head.u64(snapshot.size());
    os.write(reinterpret_cast<const char*>(head.bytes().data()),
             static_cast<std::streamsize>(head.bytes().size()));
    for (const CacheEntry& e : snapshot) {
      const Bytes payload = encode_entry(e);
      ByteWriter rec;
      rec.u32(static_cast<std::uint32_t>(payload.size()));
      os.write(reinterpret_cast<const char*>(rec.bytes().data()),
               static_cast<std::streamsize>(rec.bytes().size()));
      os.write(reinterpret_cast<const char*>(payload.data()),
               static_cast<std::streamsize>(payload.size()));
      ByteWriter sum;
      sum.u64(stable_hash(payload));
      os.write(reinterpret_cast<const char*>(sum.bytes().data()),
               static_cast<std::streamsize>(sum.bytes().size()));
    }
    if (!os) {
      os.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

StoreData read_store_strict(const std::string& path) {
  StoreData data;
  const std::string error = read_store(path, data);
  if (!error.empty()) throw std::runtime_error(error);
  return data;
}

TuneKey make_key(const sim::MachineParams& machine, const cube::PartitionSpec& before,
                 const cube::PartitionSpec& after, const fault::FaultSpec* faults,
                 const SpaceOptions& space) {
  ByteWriter w;
  w.u32(kStoreVersion);
  serialize(w, machine);
  serialize(w, before);
  serialize(w, after);
  serialize(w, faults != nullptr ? *faults : fault::FaultSpec{});
  w.u32(static_cast<std::uint32_t>(space.families.size()));
  for (const Family f : space.families) w.u8(static_cast<std::uint8_t>(f));
  w.u64(space.max_candidates);
  TuneKey key;
  key.bytes = w.take();
  key.hash = stable_hash(key.bytes);
  return key;
}

TuneKey make_pipeline_key(const sim::MachineParams& machine, const std::string& signature,
                          std::size_t stage_index, const std::string& stage_name,
                          const fault::FaultSpec* faults, std::size_t max_candidates) {
  ByteWriter w;
  w.u32(kStoreVersion);
  serialize(w, machine);
  serialize(w, faults != nullptr ? *faults : fault::FaultSpec{});
  // A literal tag keeps pipeline keys disjoint from transpose keys even
  // if a signature string ever mimicked a spec serialisation.
  w.str("pipeline");
  w.str(signature);
  w.u64(stage_index);
  w.str(stage_name);
  w.u64(max_candidates);
  TuneKey key;
  key.bytes = w.take();
  key.hash = stable_hash(key.bytes);
  return key;
}

}  // namespace nct::tune
