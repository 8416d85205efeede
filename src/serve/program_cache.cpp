#include "serve/program_cache.hpp"

#include <iterator>

#include "tune/serialize.hpp"

namespace nct::serve {

std::string ProgramCache::make_key(const tune::TuneKey& problem,
                                   const tune::Candidate& choice) {
  tune::ByteWriter w;
  tune::serialize(w, choice);
  std::string key(problem.bytes.begin(), problem.bytes.end());
  key.append(w.bytes().begin(), w.bytes().end());
  return key;
}

void ProgramCache::insert(std::string key, Program program) {
  const std::size_t weight = key.size() + (program != nullptr ? program->heap_bytes() : 0);
  if (weight > capacity_) return;  // served, but never kept
  const auto slot = index_.emplace(std::move(key), lru_.end()).first;
  lru_.push_front(Entry{slot, std::move(program), weight});
  slot->second = lru_.begin();
  stats_.bytes += weight;
  while (stats_.bytes > capacity_) {
    const Lru::iterator last = std::prev(lru_.end());
    stats_.bytes -= last->weight;
    index_.erase(last->slot);
    lru_.erase(last);
    ++stats_.evictions;
  }
}

}  // namespace nct::serve
