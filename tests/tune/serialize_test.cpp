// Round-trip and stability tests for the autotuner's canonical binary
// encoding: equal values must produce equal bytes and equal hashes,
// every field must survive a round trip (including the extreme ones —
// SIZE_MAX packet limits, infinite fault windows, zero-width shapes and
// 0-dimension cubes), and truncated input must throw SerializeError
// rather than read garbage.
#include "tune/serialize.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstddef>

#include "fault/fault.hpp"

namespace nct::tune {
namespace {

sim::MachineParams custom_machine() {
  sim::MachineParams m;
  m.n = 7;
  m.tau = 3.25e-3;
  m.tc = 1.5e-6;
  m.tcopy = 9.75e-6;
  m.max_packet_bytes = 4096;
  m.element_bytes = 8;
  m.port = sim::PortModel::n_port;
  m.switching = sim::Switching::cut_through;
  m.name = "bespoke";
  return m;
}

TEST(SerializeMachine, RoundTripsEveryField) {
  const sim::MachineParams m = custom_machine();
  ByteWriter w;
  serialize(w, m);
  ByteReader r(w.bytes());
  const sim::MachineParams back = deserialize_machine(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back, m);  // defaulted operator== covers all fields incl. name
}

TEST(SerializeMachine, RoundTripsUnboundedPacketSize) {
  sim::MachineParams m = sim::MachineParams::cm(6);
  ASSERT_EQ(m.max_packet_bytes, SIZE_MAX);  // the CM default
  ByteWriter w;
  serialize(w, m);
  ByteReader r(w.bytes());
  EXPECT_EQ(deserialize_machine(r).max_packet_bytes, SIZE_MAX);
}

TEST(SerializeMachine, FactoriesAreDistinguishable) {
  EXPECT_NE(stable_hash(sim::MachineParams::ipsc(4)), stable_hash(sim::MachineParams::cm(4)));
  EXPECT_NE(stable_hash(sim::MachineParams::ipsc(4)), stable_hash(sim::MachineParams::ipsc(6)));
  sim::MachineParams a = sim::MachineParams::ipsc(4);
  sim::MachineParams b = a;
  EXPECT_EQ(stable_hash(a), stable_hash(b));
  b.tau += 1e-9;  // any field change must re-key
  EXPECT_NE(a, b);
  EXPECT_NE(stable_hash(a), stable_hash(b));
}

TEST(SerializeMachine, EqualityIncludesEveryField) {
  const sim::MachineParams base = custom_machine();
  sim::MachineParams m = base;
  EXPECT_EQ(m, base);
  m.name = "other";
  EXPECT_NE(m, base);
  m = base;
  m.port = sim::PortModel::one_port;
  EXPECT_NE(m, base);
  m = base;
  m.switching = sim::Switching::store_and_forward;
  EXPECT_NE(m, base);
  m = base;
  m.element_bytes = 2;
  EXPECT_NE(m, base);
}

TEST(SerializeSpec, RoundTripsOneAndTwoDimensional) {
  const cube::MatrixShape s{6, 8};
  for (const cube::PartitionSpec& spec :
       {cube::PartitionSpec::col_consecutive(s, 4),
        cube::PartitionSpec::col_cyclic(s, 4, cube::Encoding::gray),
        cube::PartitionSpec::two_dim_consecutive(s, 2, 3),
        cube::PartitionSpec::two_dim_row_consec_col_cyclic(s, 2, 2, cube::Encoding::gray,
                                                           cube::Encoding::binary),
        cube::PartitionSpec::row_combined_split(s, 4, 2)}) {
    ByteWriter w;
    serialize(w, spec);
    ByteReader r(w.bytes());
    const cube::PartitionSpec back = deserialize_spec(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(back, spec) << spec.describe();
    EXPECT_EQ(back.processor_bits(), spec.processor_bits());
    EXPECT_EQ(back.local_elements(), spec.local_elements());
  }
}

TEST(SerializeSpec, RoundTripsZeroDimensionalCube) {
  // n = 0: a single processor holding the whole matrix (no real fields).
  const cube::PartitionSpec spec =
      cube::PartitionSpec::col_consecutive(cube::MatrixShape{3, 3}, 0);
  ASSERT_EQ(spec.processor_bits(), 0);
  ByteWriter w;
  serialize(w, spec);
  ByteReader r(w.bytes());
  const cube::PartitionSpec back = deserialize_spec(r);
  EXPECT_EQ(back, spec);
  EXPECT_EQ(back.processors(), 1u);
}

TEST(SerializeSpec, RoundTripsMaxWidthField) {
  // Every address bit is a processor bit: local storage is one element.
  const cube::PartitionSpec spec =
      cube::PartitionSpec::col_consecutive(cube::MatrixShape{0, 5}, 5);
  ASSERT_EQ(spec.local_elements(), 1u);
  ByteWriter w;
  serialize(w, spec);
  ByteReader r(w.bytes());
  EXPECT_EQ(deserialize_spec(r), spec);
}

TEST(SerializeSpec, EncodingChangesTheHash) {
  const cube::MatrixShape s{4, 4};
  const auto bin = cube::PartitionSpec::col_cyclic(s, 3, cube::Encoding::binary);
  const auto gray = cube::PartitionSpec::col_cyclic(s, 3, cube::Encoding::gray);
  EXPECT_NE(stable_hash(bin), stable_hash(gray));
}

TEST(SerializeFaults, RoundTripsPermanentAndTransient) {
  fault::FaultSpec spec;
  spec.fail_link(3, 1);                                    // permanent, both dirs
  spec.fail_link(0, 2, fault::Window{1.5, 2.25}, false);   // transient, one dir
  spec.fail_node(5, fault::Window{0.0, 0.125});
  spec.degrade_link(1, 0, 4.0, true);

  ByteWriter w;
  serialize(w, spec);
  ByteReader r(w.bytes());
  const fault::FaultSpec back = deserialize_faults(r);
  EXPECT_TRUE(r.done());
  ASSERT_TRUE(equal(back, spec));
  // The permanent window's infinite end must survive the f64 bit-pattern
  // encoding exactly.
  ASSERT_EQ(back.links.size(), 2u);
  EXPECT_EQ(back.links[0].when.until, fault::kForever);
  EXPECT_TRUE(back.links[0].when.permanent());
  EXPECT_FALSE(back.links[1].both_directions);
  EXPECT_DOUBLE_EQ(back.links[1].when.from, 1.5);
}

TEST(SerializeFaults, OrderMatters) {
  fault::FaultSpec a;
  a.fail_link(0, 1).fail_link(2, 0);
  fault::FaultSpec b;
  b.fail_link(2, 0).fail_link(0, 1);
  EXPECT_FALSE(equal(a, b));
  EXPECT_NE(stable_hash(a), stable_hash(b));
}

TEST(SerializeFaults, EmptySpecHashesConsistently) {
  const fault::FaultSpec empty;
  EXPECT_TRUE(equal(empty, fault::FaultSpec{}));
  EXPECT_EQ(stable_hash(empty), stable_hash(fault::FaultSpec{}));
}

TEST(SerializeFaults, CountBeyondTheInputThrows) {
  // Each of the three lists declares 0xFFFFFFFF records in turn: the
  // count must be rejected before it sizes an allocation.
  for (int list = 0; list < 3; ++list) {
    ByteWriter w;
    for (int i = 0; i < list; ++i) w.u32(0);
    w.u32(0xFFFFFFFFu);
    for (int i = 0; i < 64; ++i) w.u8(0);
    ByteReader r(w.bytes());
    EXPECT_THROW(deserialize_faults(r), SerializeError) << "list " << list;
  }
}

TEST(SerializeSpec, FieldCountBeyondTheInputThrows) {
  ByteWriter w;
  w.i32(2);
  w.i32(2);
  w.u32(0xFFFFFFFFu);
  ByteReader r(w.bytes());
  EXPECT_THROW(deserialize_spec(r), SerializeError);
}

TEST(SerializeCandidate, RoundTripsTheIdentityNotThePrior) {
  Candidate c;
  c.family = Family::ring;
  c.packet_elements = SIZE_MAX;
  c.buffer_mode = comm::BufferMode::optimal;
  c.b_copy_elements = 17;
  c.predicted_seconds = 3.5;
  Candidate cheaper = c;
  cheaper.predicted_seconds = 1.0;

  ByteWriter w, w2;
  serialize(w, c);
  serialize(w2, cheaper);
  EXPECT_EQ(w.bytes(), w2.bytes());  // the prior is not part of the identity
  ByteReader r(w.bytes());
  const Candidate back = deserialize_candidate(r);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(back == c);
  EXPECT_EQ(back.predicted_seconds, 0.0);

  Candidate other = c;
  other.b_copy_elements = 18;
  ByteWriter w3;
  serialize(w3, other);
  EXPECT_NE(w.bytes(), w3.bytes());
}

TEST(SerializeCandidate, BadFamilyOrBufferModeThrows) {
  ByteWriter w;
  serialize(w, Candidate{});
  Bytes bad_family = w.bytes();
  bad_family[0] = 0xff;
  ByteReader r1(bad_family);
  EXPECT_THROW(deserialize_candidate(r1), SerializeError);
  Bytes bad_mode = w.bytes();
  bad_mode[9] = 0xff;  // after the family byte and the u64 packet size
  ByteReader r2(bad_mode);
  EXPECT_THROW(deserialize_candidate(r2), SerializeError);
}

TEST(ByteReader, CountIsBoundedByTheRemainingInput) {
  ByteWriter w;
  w.u32(2);
  w.u64(0);  // room for exactly two 4-byte elements
  ByteReader fits(w.bytes());
  EXPECT_EQ(fits.count(4), 2u);
  ByteReader too_big(w.bytes());
  EXPECT_THROW(too_big.count(5), SerializeError);
}

TEST(ByteReader, ThrowsOnTruncation) {
  ByteWriter w;
  serialize(w, sim::MachineParams::ipsc(4));
  Bytes b = w.bytes();
  b.resize(b.size() - 1);
  ByteReader r(b);
  EXPECT_THROW(deserialize_machine(r), SerializeError);
  ByteReader empty(nullptr, 0);
  EXPECT_THROW(empty.u8(), SerializeError);
  EXPECT_THROW(empty.u64(), SerializeError);
}

TEST(StableHash, MatchesFnv1aReference) {
  // FNV-1a 64 of "a" and "" — published reference values; the hash must
  // never drift (it is persisted in store files as the entry checksum).
  EXPECT_EQ(stable_hash(nullptr, 0), 0xcbf29ce484222325ull);
  const unsigned char a = 'a';
  EXPECT_EQ(stable_hash(&a, 1), 0xaf63dc4c8601ec8cull);
}

TEST(StableHash, SensitiveToEveryByte) {
  Bytes b1 = {1, 2, 3, 4};
  Bytes b2 = {1, 2, 3, 5};
  Bytes b3 = {1, 2, 3};
  EXPECT_NE(stable_hash(b1), stable_hash(b2));
  EXPECT_NE(stable_hash(b1), stable_hash(b3));
}

}  // namespace
}  // namespace nct::tune
