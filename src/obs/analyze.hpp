// Trace analyzers: pure functions over a TraceSink that *prove* the
// paper's congestion properties on real executions rather than on plan
// metadata.
//
//  * Edge disjointness (Theorem 2): the MPT path family of each node is
//    pairwise edge-disjoint, so no directed link may carry two distinct
//    *paths* of the same source.  Packets of one path (the per-wave
//    packet trains) legitimately share their path's links, so the check
//    groups messages by (source, route) and flags a link only when two
//    different routes of one source cross it.
//  * (2, 2H)-disjointness (Lemma 14): globally, at most two distinct
//    paths cross any link — exposed as max_paths_per_link().
//  * One-port serialisation: a node's injections (send port) and final
//    hop deliveries (receive port) never overlap in time.
//  * Port concurrency: how many of a node's outgoing links are busy
//    simultaneously (n for a saturating n-port algorithm like the SBnT
//    all-to-all).
//  * Per-phase critical path: the event chain ending at the phase
//    makespan, segmented into wire / link-wait / port-wait time.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "topology/topology.hpp"

namespace nct::obs {

/// Raised by the assert_* analyzers on a violated property.
class ConformanceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct CheckResult {
  bool ok = true;
  std::string message;  ///< first violation, human-readable; empty if ok.
};

/// Per-message view reconstructed from a trace: hops in traversal order.
struct MessageTrace {
  std::uint64_t seq = 0;
  std::int32_t phase = 0;
  word src = 0;
  word dst = 0;
  std::uint64_t bytes = 0;
  double inject_time = 0.0;  ///< first hop start.
  double arrive_time = 0.0;  ///< last hop end.
  std::vector<TraceEvent> hops;

  /// The route as directed-link indices (topo::link_index), in order.
  std::vector<std::size_t> route_links(int n) const;
};

/// All messages of a trace, ordered by sequence number.
std::vector<MessageTrace> messages_of(const TraceSink& trace);

/// Per-source path disjointness: within each phase, no directed link
/// carries two messages of the same source that follow different routes.
CheckResult check_edge_disjoint(const TraceSink& trace);
/// Throws ConformanceError with the first conflicting link if violated.
void assert_edge_disjoint(const TraceSink& trace);

/// Topology-aware variants: the trace must have been recorded on `t`
/// (matching node and port counts — std::invalid_argument otherwise);
/// violation messages name the real link target via t.neighbor().  The
/// plain overloads above assume a Boolean cube.
CheckResult check_edge_disjoint(const TraceSink& trace, const topo::Topology& t);
void assert_edge_disjoint(const TraceSink& trace, const topo::Topology& t);

/// The largest number of distinct (source, route) path groups crossing
/// any one directed link within a phase.  1 for globally edge-disjoint
/// families (SPT); larger for MPT, whose different sources' paths may
/// reuse a link in different cycles (Lemma 14's (2, 2H)-disjointness is
/// a per-cycle property, checked structurally in the topology tests).
std::size_t max_paths_per_link(const TraceSink& trace);

/// One-port conformance: per node, send-port busy intervals (send_begin
/// events) are non-overlapping, and likewise receive-port intervals
/// (send_end events).  Interval endpoints may touch.
CheckResult check_one_port(const TraceSink& trace);
void assert_one_port(const TraceSink& trace);

/// Topology-aware variants: validate the trace's shape against `t`
/// before checking (the check itself is topology-independent).
CheckResult check_one_port(const TraceSink& trace, const topo::Topology& t);
void assert_one_port(const TraceSink& trace, const topo::Topology& t);

/// Peak number of simultaneously busy *outgoing* links per node
/// (derived from hop events).  Index is the node id.
std::vector<int> peak_concurrent_out_ports(const TraceSink& trace);

/// Peak concurrent use of any directed link: the largest number of
/// overlapping hop busy intervals [t0, t1] on one link (node * ports +
/// dim, ports == trace.dimensions()).  Touching intervals do not
/// overlap, so a plan whose messages never share a link at the same
/// time — edge-disjoint SPT/MPT paths — peaks at 1; 0 for a trace
/// without hops.
std::size_t peak_link_overlap(const TraceSink& trace);

/// One segment of a critical path: wire time on a link, or a stall.
struct CriticalSegment {
  enum class Kind { wire, link_wait, port_wait } kind = Kind::wire;
  double t0 = 0.0;
  double t1 = 0.0;
  std::int32_t dim = -1;  ///< link dimension for wire segments.

  double duration() const noexcept { return t1 - t0; }
};

/// The chain of segments ending at a phase's makespan: the last-arriving
/// message, its per-hop wire times and the waits between them.
struct CriticalPath {
  std::int32_t phase = -1;
  std::uint64_t seq = kNoSeq;  ///< kNoSeq if the phase had no sends.
  word src = 0;
  word dst = 0;
  double start = 0.0;
  double end = 0.0;
  std::vector<CriticalSegment> segments;

  double wire_time() const noexcept;
  double wait_time() const noexcept;
};

/// Window a merged kernel-pipeline trace into per-stage slices at its
/// stage_boundary markers: slice k holds the events between boundary k
/// and boundary k+1 (boundary events themselves are dropped), with the
/// source sink's shape (nodes, ports) preserved, so every analyzer above
/// can be applied stage-by-stage.  Events before the first boundary (a
/// trace that never marked stages) land in a single slice.
std::vector<TraceSink> split_stages(const TraceSink& trace);

/// Extract the critical path of phase `phase` (by index).  Returns a
/// CriticalPath with seq == kNoSeq when the phase carried no messages.
CriticalPath phase_critical_path(const TraceSink& trace, std::int32_t phase);

/// One line per segment, for reports and trace_dump.
std::string format_critical_path(const CriticalPath& cp);

}  // namespace nct::obs
