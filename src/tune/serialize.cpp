#include "tune/serialize.hpp"

#include <cstring>

namespace nct::tune {

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

std::uint8_t ByteReader::u8() {
  need(1);
  return p_[off_++];
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p_[off_ + i]) << (8 * i);
  off_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p_[off_ + i]) << (8 * i);
  off_ += 8;
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(p_ + off_), len);
  off_ += len;
  return s;
}

std::uint32_t ByteReader::count(std::size_t element_bytes) {
  const std::uint32_t n = u32();
  if (n > remaining() / element_bytes) throw SerializeError("count exceeds input");
  return n;
}

std::uint64_t stable_hash(const unsigned char* data, std::size_t size) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---- sim::MachineParams ----------------------------------------------

void serialize(ByteWriter& w, const sim::MachineParams& m) {
  w.i32(m.n);
  w.f64(m.tau);
  w.f64(m.tc);
  w.f64(m.tcopy);
  w.u64(static_cast<std::uint64_t>(m.max_packet_bytes));
  w.i32(m.element_bytes);
  w.u8(static_cast<std::uint8_t>(m.port));
  w.u8(static_cast<std::uint8_t>(m.switching));
  w.str(m.name);
  // Topology signature (store version 2+): kind tag plus radix shape.
  // A hypercube is kind 0 with an empty shape, so cube machines of
  // different n still hash apart via the leading i32.
  w.u8(static_cast<std::uint8_t>(m.topology.kind));
  w.u32(static_cast<std::uint32_t>(m.topology.shape.size()));
  for (const int radix : m.topology.shape) w.i32(radix);
}

sim::MachineParams deserialize_machine(ByteReader& r) {
  sim::MachineParams m;
  m.n = r.i32();
  m.tau = r.f64();
  m.tc = r.f64();
  m.tcopy = r.f64();
  m.max_packet_bytes = static_cast<std::size_t>(r.u64());
  m.element_bytes = r.i32();
  const std::uint8_t port = r.u8();
  if (port > 1) throw SerializeError("bad port model");
  m.port = static_cast<sim::PortModel>(port);
  const std::uint8_t sw = r.u8();
  if (sw > 1) throw SerializeError("bad switching mode");
  m.switching = static_cast<sim::Switching>(sw);
  m.name = r.str();
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(topo::TopoKind::dragonfly))
    throw SerializeError("bad topology kind");
  m.topology.kind = static_cast<topo::TopoKind>(kind);
  const std::uint32_t nshape = r.u32();
  if (nshape > 64) throw SerializeError("bad topology shape");
  m.topology.shape.reserve(nshape);
  for (std::uint32_t i = 0; i < nshape; ++i) {
    const std::int32_t radix = r.i32();
    if (radix < 1) throw SerializeError("bad topology radix");
    m.topology.shape.push_back(radix);
  }
  return m;
}

std::uint64_t stable_hash(const sim::MachineParams& m) {
  ByteWriter w;
  serialize(w, m);
  return stable_hash(w.bytes());
}

// ---- cube::PartitionSpec ---------------------------------------------

void serialize(ByteWriter& w, const cube::PartitionSpec& spec) {
  w.i32(spec.shape().p);
  w.i32(spec.shape().q);
  w.u32(static_cast<std::uint32_t>(spec.fields().size()));
  for (const cube::Field& f : spec.fields()) {
    w.i32(f.pos);
    w.i32(f.len);
    w.u8(static_cast<std::uint8_t>(f.enc));
  }
}

cube::PartitionSpec deserialize_spec(ByteReader& r) {
  cube::MatrixShape s;
  s.p = r.i32();
  s.q = r.i32();
  if (s.p < 0 || s.q < 0 || s.m() > 63) throw SerializeError("bad matrix shape");
  const std::uint32_t count = r.count(9);  // pos i32, len i32, enc u8
  std::vector<cube::Field> fields;
  fields.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    cube::Field f;
    f.pos = r.i32();
    f.len = r.i32();
    if (f.pos < 0 || f.len < 0 || f.pos + f.len > s.m()) throw SerializeError("bad field");
    const std::uint8_t enc = r.u8();
    if (enc > 1) throw SerializeError("bad encoding");
    f.enc = static_cast<cube::Encoding>(enc);
    fields.push_back(f);
  }
  return cube::PartitionSpec(s, std::move(fields));
}

std::uint64_t stable_hash(const cube::PartitionSpec& spec) {
  ByteWriter w;
  serialize(w, spec);
  return stable_hash(w.bytes());
}

// ---- fault::FaultSpec ------------------------------------------------

namespace {

void put_window(ByteWriter& w, const fault::Window& win) {
  w.f64(win.from);
  w.f64(win.until);
}

fault::Window get_window(ByteReader& r) {
  fault::Window w;
  w.from = r.f64();
  w.until = r.f64();
  return w;
}

}  // namespace

void serialize(ByteWriter& w, const fault::FaultSpec& spec) {
  w.u32(static_cast<std::uint32_t>(spec.links.size()));
  for (const fault::LinkFault& f : spec.links) {
    w.u64(f.link.from);
    w.i32(f.link.dim);
    put_window(w, f.when);
    w.u8(f.both_directions ? 1 : 0);
  }
  w.u32(static_cast<std::uint32_t>(spec.nodes.size()));
  for (const fault::NodeFault& f : spec.nodes) {
    w.u64(f.node);
    put_window(w, f.when);
  }
  w.u32(static_cast<std::uint32_t>(spec.degraded.size()));
  for (const fault::LinkDegrade& f : spec.degraded) {
    w.u64(f.link.from);
    w.i32(f.link.dim);
    w.f64(f.factor);
    w.u8(f.both_directions ? 1 : 0);
  }
}

fault::FaultSpec deserialize_faults(ByteReader& r) {
  fault::FaultSpec spec;
  const std::uint32_t nl = r.count(29);  // from, dim, window, both
  spec.links.reserve(nl);
  for (std::uint32_t i = 0; i < nl; ++i) {
    fault::LinkFault f;
    f.link.from = r.u64();
    f.link.dim = r.i32();
    f.when = get_window(r);
    f.both_directions = r.u8() != 0;
    spec.links.push_back(f);
  }
  const std::uint32_t nn = r.count(24);  // node, window
  spec.nodes.reserve(nn);
  for (std::uint32_t i = 0; i < nn; ++i) {
    fault::NodeFault f;
    f.node = r.u64();
    f.when = get_window(r);
    spec.nodes.push_back(f);
  }
  const std::uint32_t nd = r.count(21);  // from, dim, factor, both
  spec.degraded.reserve(nd);
  for (std::uint32_t i = 0; i < nd; ++i) {
    fault::LinkDegrade f;
    f.link.from = r.u64();
    f.link.dim = r.i32();
    f.factor = r.f64();
    f.both_directions = r.u8() != 0;
    spec.degraded.push_back(f);
  }
  return spec;
}

std::uint64_t stable_hash(const fault::FaultSpec& spec) {
  ByteWriter w;
  serialize(w, spec);
  return stable_hash(w.bytes());
}

bool equal(const fault::FaultSpec& a, const fault::FaultSpec& b) {
  ByteWriter wa, wb;
  serialize(wa, a);
  serialize(wb, b);
  return wa.bytes() == wb.bytes();
}

// ---- tune::Candidate -------------------------------------------------

void serialize(ByteWriter& w, const Candidate& c) {
  w.u8(static_cast<std::uint8_t>(c.family));
  w.u64(c.packet_elements);
  w.u8(static_cast<std::uint8_t>(c.buffer_mode));
  w.u64(c.b_copy_elements);
}

Candidate deserialize_candidate(ByteReader& r) {
  Candidate c;
  const std::uint8_t fam = r.u8();
  if (fam > static_cast<std::uint8_t>(Family::ring)) throw SerializeError("bad candidate family");
  c.family = static_cast<Family>(fam);
  c.packet_elements = r.u64();
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(comm::BufferMode::optimal))
    throw SerializeError("bad buffer mode");
  c.buffer_mode = static_cast<comm::BufferMode>(mode);
  c.b_copy_elements = r.u64();
  return c;
}

}  // namespace nct::tune
