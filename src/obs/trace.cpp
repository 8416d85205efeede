#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>

#include "topology/hypercube.hpp"

namespace nct::obs {

const char* event_kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::phase_begin: return "phase_begin";
    case EventKind::phase_end: return "phase_end";
    case EventKind::send_begin: return "send_begin";
    case EventKind::send_end: return "send_end";
    case EventKind::hop: return "hop";
    case EventKind::port_wait_send: return "port_wait_send";
    case EventKind::port_wait_recv: return "port_wait_recv";
    case EventKind::copy: return "copy";
    case EventKind::stage: return "stage";
    case EventKind::link_down: return "link_down";
    case EventKind::retry: return "retry";
    case EventKind::reroute: return "reroute";
    case EventKind::aborted: return "aborted";
    case EventKind::stage_boundary: return "stage_boundary";
  }
  return "unknown";
}

double TraceSink::total_time() const noexcept {
  double t = 0.0;
  for (const TraceEvent& e : events_) t = std::max(t, e.t1);
  return t;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// Chrome trace timestamps are microseconds.
double us(double seconds) { return seconds * 1e6; }

}  // namespace

void write_chrome_trace(const TraceSink& trace, std::ostream& os) {
  const int n = trace.dimensions();
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";

  // Process/thread naming metadata.  Only tracks that actually carry
  // events are named (a 12-cube has 49k links; the trace may touch few).
  os << R"({"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":"nodes"}})"
     << ",\n"
     << R"({"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"links"}})";

  std::vector<bool> node_used(static_cast<std::size_t>(trace.nodes()), false);
  // Link track names take the far endpoint from the hop events themselves
  // (it equals flip_bit(from, dim) on the cube, and is the only source of
  // truth on other topologies).
  std::map<std::size_t, word> link_target;
  for (const TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case EventKind::hop:
      case EventKind::link_down:
        link_target[topo::link_index(n, {e.node, e.dim})] = e.peer;
        break;
      case EventKind::send_begin:
      case EventKind::send_end:
      case EventKind::port_wait_send:
      case EventKind::port_wait_recv:
      case EventKind::copy:
      case EventKind::stage:
      case EventKind::retry:
      case EventKind::reroute:
      case EventKind::aborted:
        if (e.node < trace.nodes()) node_used[static_cast<std::size_t>(e.node)] = true;
        break;
      default:
        break;
    }
  }
  for (word x = 0; x < trace.nodes(); ++x) {
    if (!node_used[static_cast<std::size_t>(x)]) continue;
    os << ",\n"
       << R"({"ph":"M","name":"thread_name","pid":0,"tid":)" << x
       << R"(,"args":{"name":"node )" << x << "\"}}";
  }
  for (const auto& [li, to] : link_target) {
    const word from = static_cast<word>(li / static_cast<std::size_t>(n));
    const int dim = static_cast<int>(li % static_cast<std::size_t>(n));
    os << ",\n"
       << R"({"ph":"M","name":"thread_name","pid":1,"tid":)" << li
       << R"(,"args":{"name":")" << from << " -d" << dim << "-> " << to << "\"}}";
  }

  const auto& labels = trace.phase_labels();
  for (const TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case EventKind::phase_begin: {
        const std::string label =
            static_cast<std::size_t>(e.phase) < labels.size()
                ? labels[static_cast<std::size_t>(e.phase)]
                : std::string("phase");
        os << ",\n"
           << R"({"ph":"i","s":"g","pid":0,"tid":0,"ts":)" << us(e.t0)
           << R"(,"name":"phase )" << e.phase << ": " << json_escape(label) << "\"}";
        break;
      }
      case EventKind::phase_end:
        os << ",\n"
           << R"({"ph":"i","s":"g","pid":0,"tid":0,"ts":)" << us(e.t0)
           << R"(,"name":"barrier )" << e.phase << "\"}";
        break;
      case EventKind::send_begin:
        os << ",\n"
           << R"({"ph":"X","pid":0,"tid":)" << e.node << R"(,"ts":)" << us(e.t0)
           << R"(,"dur":)" << us(e.t1 - e.t0) << R"(,"name":"send #)" << e.seq
           << " -> " << e.peer << R"(","args":{"bytes":)" << e.bytes << "}}";
        break;
      case EventKind::send_end:
        os << ",\n"
           << R"({"ph":"X","pid":0,"tid":)" << e.node << R"(,"ts":)" << us(e.t0)
           << R"(,"dur":)" << us(e.t1 - e.t0) << R"(,"name":"recv #)" << e.seq
           << " <- " << e.peer << R"(","args":{"bytes":)" << e.bytes << "}}";
        break;
      case EventKind::hop:
        os << ",\n"
           << R"({"ph":"X","pid":1,"tid":)" << topo::link_index(n, {e.node, e.dim})
           << R"(,"ts":)" << us(e.t0) << R"(,"dur":)" << us(e.t1 - e.t0)
           << R"(,"name":"msg #)" << e.seq << R"(","args":{"bytes":)" << e.bytes
           << R"(,"dim":)" << e.dim << "}}";
        break;
      case EventKind::port_wait_send:
      case EventKind::port_wait_recv:
        os << ",\n"
           << R"({"ph":"X","pid":0,"tid":)" << e.node << R"(,"ts":)" << us(e.t0)
           << R"(,"dur":)" << us(e.t1 - e.t0) << R"(,"name":")"
           << (e.kind == EventKind::port_wait_send ? "wait send-port" : "wait recv-port")
           << R"( #)" << e.seq << "\"}";
        break;
      case EventKind::copy:
      case EventKind::stage:
        os << ",\n"
           << R"({"ph":"X","pid":0,"tid":)" << e.node << R"(,"ts":)" << us(e.t0)
           << R"(,"dur":)" << us(e.t1 - e.t0) << R"(,"name":")"
           << (e.kind == EventKind::copy ? "copy" : "stage") << R"(","args":{"bytes":)"
           << e.bytes << "}}";
        break;
      case EventKind::link_down:
        os << ",\n"
           << R"({"ph":"X","pid":1,"tid":)" << topo::link_index(n, {e.node, e.dim})
           << R"(,"ts":)" << us(e.t0) << R"(,"dur":)" << us(e.t1 - e.t0)
           << R"(,"name":"DOWN blocking msg #)" << e.seq << R"(","args":{"dim":)" << e.dim
           << "}}";
        break;
      case EventKind::retry:
        os << ",\n"
           << R"({"ph":"i","s":"t","pid":0,"tid":)" << e.node << R"(,"ts":)" << us(e.t0)
           << R"(,"name":"retry #)" << e.seq << " d" << e.dim << "\"}";
        break;
      case EventKind::reroute:
        os << ",\n"
           << R"({"ph":"i","s":"t","pid":0,"tid":)" << e.node << R"(,"ts":)" << us(e.t0)
           << R"(,"name":"reroute #)" << e.seq << " -> " << e.peer << "\"}";
        break;
      case EventKind::aborted:
        os << ",\n"
           << R"({"ph":"i","s":"g","pid":0,"tid":)" << e.node << R"(,"ts":)" << us(e.t0)
           << R"(,"name":"ABORT #)" << e.seq << "\"}";
        break;
      case EventKind::stage_boundary:
        os << ",\n"
           << R"({"ph":"i","s":"g","pid":0,"tid":0,"ts":)" << us(e.t0)
           << R"(,"name":"pipeline stage )" << e.phase << "\"}";
        break;
    }
  }
  os << "\n]}\n";
}

bool write_chrome_trace_file(const TraceSink& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(trace, os);
  return static_cast<bool>(os);
}

namespace {

constexpr char kMagic[8] = {'N', 'C', 'T', 'T', 'R', 'A', 'C', 'E'};
// Version 2 added the fault event kinds (link_down..aborted), version 3
// an explicit node count after the dimensions field (which now means
// ports-per-node on non-cube topologies), version 4 the stage_boundary
// event kind (kernel pipelines).  Only the current version reads.
constexpr std::uint32_t kVersion = 4;

template <class T>
void put(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <class T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("truncated trace stream");
  return v;
}

void put_event(std::ostream& os, const TraceEvent& e) {
  put<std::uint8_t>(os, static_cast<std::uint8_t>(e.kind));
  put<std::int32_t>(os, e.phase);
  put<std::int32_t>(os, e.dim);
  put<double>(os, e.t0);
  put<double>(os, e.t1);
  put<std::uint64_t>(os, e.node);
  put<std::uint64_t>(os, e.peer);
  put<std::uint64_t>(os, e.seq);
  put<std::uint64_t>(os, e.bytes);
}

TraceEvent get_event(std::istream& is) {
  TraceEvent e;
  const auto kind = get<std::uint8_t>(is);
  if (kind > static_cast<std::uint8_t>(EventKind::stage_boundary))
    throw std::runtime_error("bad event kind in trace");
  e.kind = static_cast<EventKind>(kind);
  e.phase = get<std::int32_t>(is);
  e.dim = get<std::int32_t>(is);
  e.t0 = get<double>(is);
  e.t1 = get<double>(is);
  e.node = get<std::uint64_t>(is);
  e.peer = get<std::uint64_t>(is);
  e.seq = get<std::uint64_t>(is);
  e.bytes = get<std::uint64_t>(is);
  return e;
}

}  // namespace

void write_binary_trace(const TraceSink& trace, std::ostream& os) {
  os.write(kMagic, sizeof(kMagic));
  put<std::uint32_t>(os, kVersion);
  put<std::uint32_t>(os, static_cast<std::uint32_t>(trace.dimensions()));
  put<std::uint64_t>(os, trace.nodes());
  put<std::uint64_t>(os, trace.events().size());
  put<std::uint32_t>(os, static_cast<std::uint32_t>(trace.phase_labels().size()));
  for (const std::string& l : trace.phase_labels()) {
    put<std::uint32_t>(os, static_cast<std::uint32_t>(l.size()));
    os.write(l.data(), static_cast<std::streamsize>(l.size()));
  }
  for (const TraceEvent& e : trace.events()) put_event(os, e);
}

bool write_binary_trace_file(const TraceSink& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  write_binary_trace(trace, os);
  return static_cast<bool>(os);
}

TraceSink read_binary_trace(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("not an nct trace file (bad magic)");
  const auto version = get<std::uint32_t>(is);
  if (version != kVersion) throw std::runtime_error("unsupported trace version");
  const auto n = get<std::uint32_t>(is);
  if (n > 4096) throw std::runtime_error("implausible port count in trace header");
  const auto nnodes = get<std::uint64_t>(is);
  if (nnodes < 1 || nnodes > (word{1} << 48))
    throw std::runtime_error("implausible node count in trace header");
  const auto nevents = get<std::uint64_t>(is);
  const auto nlabels = get<std::uint32_t>(is);
  std::vector<std::string> labels;
  labels.reserve(std::min<std::uint32_t>(nlabels, 1u << 10));
  for (std::uint32_t i = 0; i < nlabels; ++i) {
    const auto len = get<std::uint32_t>(is);
    if (len > (1u << 20)) throw std::runtime_error("implausible label length in trace");
    std::string l(len, '\0');
    is.read(l.data(), static_cast<std::streamsize>(len));
    if (!is) throw std::runtime_error("truncated trace stream");
    labels.push_back(std::move(l));
  }
  std::vector<TraceEvent> events;
  // Don't trust a corrupt header's event count with a huge allocation up
  // front; a short stream fails on the first missing record instead.
  events.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(nevents, 1u << 20)));
  for (std::uint64_t i = 0; i < nevents; ++i) events.push_back(get_event(is));
  // A well-formed trace ends exactly after the declared events; trailing
  // bytes mean the header's count (or the file) is corrupt.  Without this
  // check a truncated count silently yields a partial trace.
  if (is.peek() != std::istream::traits_type::eof())
    throw std::runtime_error("trailing bytes after declared event count in trace");
  TraceSink sink;
  sink.restore_topology(nnodes, static_cast<int>(n), std::move(labels), std::move(events));
  return sink;
}

TraceSink read_binary_trace_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open trace file: " + path);
  return read_binary_trace(is);
}

}  // namespace nct::obs
