// Digests for pinned golden runs: FNV-1a 64 over a trace's binary export,
// over a final memory image and over a planned program, so a test can
// hold a whole run's event stream, data placement or send list as one
// integer literal.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

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

/// Hash a string as its length, then its bytes.
inline void fnv1a64(std::uint64_t& h, const std::string& s) {
  fnv1a64(h, static_cast<std::uint64_t>(s.size()));
  fnv1a64(h, s.data(), s.size());
}

/// Fold a program into `h`: n, local_slots, then every phase's label,
/// copies, stages and sends (src, route, slots, flags), each list
/// prefixed by its length.
inline void fnv1a64(std::uint64_t& h, const sim::Program& prog) {
  const auto slots = [&h](const auto& s) {
    fnv1a64(h, static_cast<std::uint64_t>(s.size()));
    for (const auto v : s) fnv1a64(h, static_cast<std::uint64_t>(v));
  };
  const auto copies = [&](const std::vector<sim::CopyOp>& ops) {
    fnv1a64(h, static_cast<std::uint64_t>(ops.size()));
    for (const sim::CopyOp& c : ops) {
      fnv1a64(h, static_cast<std::uint64_t>(c.node));
      slots(c.src_slots);
      slots(c.dst_slots);
      fnv1a64(h, static_cast<std::uint64_t>(c.charged));
    }
  };
  const auto stages = [&h](const std::vector<sim::StageOp>& ops) {
    fnv1a64(h, static_cast<std::uint64_t>(ops.size()));
    for (const sim::StageOp& s : ops) {
      fnv1a64(h, static_cast<std::uint64_t>(s.node));
      fnv1a64(h, static_cast<std::uint64_t>(s.bytes));
    }
  };
  fnv1a64(h, static_cast<std::uint64_t>(prog.n));
  fnv1a64(h, static_cast<std::uint64_t>(prog.local_slots));
  fnv1a64(h, static_cast<std::uint64_t>(prog.phases.size()));
  for (const sim::Phase& ph : prog.phases) {
    fnv1a64(h, ph.label);
    copies(ph.pre_copies);
    stages(ph.stage);
    fnv1a64(h, static_cast<std::uint64_t>(ph.sends.size()));
    for (const sim::SendOp op : ph.sends) {
      fnv1a64(h, static_cast<std::uint64_t>(op.src));
      fnv1a64(h, static_cast<std::uint64_t>(op.route.size()));
      for (const int d : op.route) fnv1a64(h, static_cast<std::uint64_t>(d));
      slots(op.src_slots);
      slots(op.dst_slots);
      fnv1a64(h, static_cast<std::uint64_t>(op.keep_source) |
                     (static_cast<std::uint64_t>(op.rerouted) << 1));
    }
    stages(ph.post_stage);
    copies(ph.post_copies);
  }
}

/// FNV-1a 64 of one program (see fnv1a64(h, const sim::Program&)).
inline std::uint64_t program_digest(const sim::Program& prog) {
  std::uint64_t h = kFnvBasis;
  fnv1a64(h, prog);
  return h;
}

}  // namespace nct::golden
