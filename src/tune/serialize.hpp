// Canonical binary (de)serialisation and stable content hashing for the
// autotuner's cache keys.
//
// A tuned decision is only reusable when *everything* that influenced the
// measurement is identical: the machine parameters, the partition specs
// before and after the transpose, and the fault scenario the tuning ran
// under.  A tuned choice is stored and keyed by its Candidate identity.
// Each of those types gets a canonical little-endian byte
// encoding here (independent of host endianness and padding), plus an
// FNV-1a content hash over the encoded bytes.  The encoding is versioned
// at the cache-store level (see cache.hpp); within one version it is
// append-only and byte-stable, so equal values always produce equal
// bytes and equal hashes across processes and platforms.
//
// Doubles are encoded by IEEE-754 bit pattern (infinities — e.g. the
// permanent-fault window end — round-trip exactly); SIZE_MAX packet
// limits and 0-dimension cubes are ordinary values.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cube/partition.hpp"
#include "fault/fault.hpp"
#include "sim/model.hpp"
#include "tune/space.hpp"

namespace nct::tune {

using Bytes = std::vector<unsigned char>;

/// Raised by ByteReader on truncated or malformed input.  The tolerant
/// cache loader turns this into "drop the entry and retune"; the strict
/// tooling reader surfaces it as a diagnostic.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Little-endian append-only encoder.
class ByteWriter {
 public:
  const Bytes& bytes() const noexcept { return out_; }
  Bytes take() noexcept { return std::move(out_); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);  ///< IEEE-754 bit pattern.
  void str(const std::string& s);

 private:
  Bytes out_;
};

/// Bounds-checked little-endian decoder over a byte range.
class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t size) : p_(data), size_(size) {}
  explicit ByteReader(const Bytes& b) : ByteReader(b.data(), b.size()) {}

  std::size_t remaining() const noexcept { return size_ - off_; }
  bool done() const noexcept { return off_ == size_; }

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  std::string str();
  /// An untrusted u32 element count: throws when the input left cannot
  /// hold that many elements of at least `element_bytes` each, so a
  /// corrupt count never sizes an allocation.
  std::uint32_t count(std::size_t element_bytes);

 private:
  void need(std::size_t n) const {
    if (size_ - off_ < n) throw SerializeError("truncated input");
  }
  const unsigned char* p_;
  std::size_t size_;
  std::size_t off_ = 0;
};

/// FNV-1a 64-bit over a byte range: the stable content hash used for
/// cache keys and the store's per-entry checksums.
std::uint64_t stable_hash(const unsigned char* data, std::size_t size) noexcept;
inline std::uint64_t stable_hash(const Bytes& b) noexcept {
  return stable_hash(b.data(), b.size());
}

// ---- sim::MachineParams ----------------------------------------------

void serialize(ByteWriter& w, const sim::MachineParams& m);
sim::MachineParams deserialize_machine(ByteReader& r);
std::uint64_t stable_hash(const sim::MachineParams& m);

// ---- cube::PartitionSpec ---------------------------------------------

void serialize(ByteWriter& w, const cube::PartitionSpec& spec);
cube::PartitionSpec deserialize_spec(ByteReader& r);
std::uint64_t stable_hash(const cube::PartitionSpec& spec);

// ---- fault::FaultSpec ------------------------------------------------

void serialize(ByteWriter& w, const fault::FaultSpec& spec);
fault::FaultSpec deserialize_faults(ByteReader& r);
std::uint64_t stable_hash(const fault::FaultSpec& spec);

/// Field-wise FaultSpec equality (declaration order matters: two specs
/// listing the same faults in different orders hash differently and are
/// intentionally distinct cache keys).
bool equal(const fault::FaultSpec& a, const fault::FaultSpec& b);

// ---- tune::Candidate -------------------------------------------------

/// The candidate's identity: the fields Candidate::operator== compares
/// (family, packet_elements, buffer_mode, b_copy_elements), not its
/// cost-model prior.
void serialize(ByteWriter& w, const Candidate& c);
/// Reads the identity fields back (predicted_seconds stays 0).
Candidate deserialize_candidate(ByteReader& r);

}  // namespace nct::tune
