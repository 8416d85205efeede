// Digests for pinned golden runs: FNV-1a 64 over a trace's binary export
// and over a final memory image, so a test can hold a whole run's event
// stream and data placement as two integer literals.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "obs/trace.hpp"
#include "sim/program.hpp"

namespace nct::golden {

inline void fnv1a64(std::uint64_t& h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Hash a 64-bit value as its eight little-endian bytes.
inline void fnv1a64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

/// FNV-1a 64 of the trace's obs::write_binary_trace bytes.
inline std::uint64_t trace_digest(const obs::TraceSink& trace) {
  std::ostringstream os;
  obs::write_binary_trace(trace, os);
  const std::string bytes = os.str();
  std::uint64_t h = kFnvBasis;
  fnv1a64(h, bytes.data(), bytes.size());
  return h;
}

/// FNV-1a 64 over the node count, then each node's slot count and slot
/// words, all as little-endian 64-bit values.
inline std::uint64_t memory_digest(const sim::Memory& mem) {
  std::uint64_t h = kFnvBasis;
  fnv1a64(h, static_cast<std::uint64_t>(mem.size()));
  for (const auto& local : mem) {
    fnv1a64(h, static_cast<std::uint64_t>(local.size()));
    for (const auto v : local) fnv1a64(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

}  // namespace nct::golden
