// Structured event tracing for the simulation engine.
//
// A TraceSink collects typed events with simulated timestamps as the
// engine executes a program: message injection and arrival, every link
// traversal, one-port send/receive serialisation waits, charged local
// copies and staging, and phase barriers.  Data mode, timing-only mode
// and the sharded engine emit the *same* event stream for the same
// program — the golden tests pin it byte for byte — so traces are cheap
// to produce at sweep scale.  Hop events are also the link-occupancy
// record: obs::peak_link_overlap reads them.
//
// A sink holds its whole run in memory.  It can be exported as Chrome
// `chrome://tracing` / Perfetto JSON (one track per node, one per
// directed link) or as a compact binary log, the one on-disk trace
// format (read back by read_binary_trace; see trace_dump in tools/).
// The analyzers in obs/analyze.hpp and the metrics in obs/metrics.hpp
// are pure functions over a trace.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cube/bits.hpp"

namespace nct::obs {

using cube::word;

enum class EventKind : std::uint8_t {
  phase_begin = 0,  ///< instant: a phase starts at t0 (== t1).
  phase_end,        ///< instant: the phase's barrier time.
  send_begin,       ///< injection: [t0, t1] is the send-port busy interval.
  send_end,         ///< delivery: [t0, t1] is the receive-port busy interval.
  hop,              ///< one directed-link traversal, busy over [t0, t1].
  port_wait_send,   ///< one-port: injection stalled on the send port.
  port_wait_recv,   ///< one-port: final hop stalled on the receive port.
  copy,             ///< charged local copy on `node`'s clock.
  stage,            ///< buffer gather/scatter charge on `node`'s clock.
  // Fault-injection events (src/fault).  Appended so the numeric values
  // of the kinds above stay stable in the binary trace format.
  link_down,        ///< hop blocked by an outage of link node -dim-> peer over [t0, t1].
  retry,            ///< instant: the blocked hop re-injects at t0 after a recovery.
  reroute,          ///< instant: message injected on a detour route (node=src, peer=dst).
  aborted,          ///< instant: message given up at `node` (retries/timeout exhausted).
  // Kernel-pipeline events (src/kernels).  Appended for binary-format
  // stability, like the fault kinds above.
  stage_boundary,   ///< instant: pipeline stage `phase` begins at t0 (merged traces).
};

const char* event_kind_name(EventKind k) noexcept;

/// Messages are identified by their global injection sequence number;
/// non-message events carry kNoSeq.
inline constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

struct TraceEvent {
  EventKind kind = EventKind::hop;
  std::int32_t phase = 0;   ///< phase index within the program.
  std::int32_t dim = -1;    ///< cube dimension (hop events), -1 otherwise.
  double t0 = 0.0;          ///< simulated start time (s).
  double t1 = 0.0;          ///< simulated end time (s); == t0 for instants.
  word node = 0;            ///< context node: hop source, copy node, ...
  word peer = 0;            ///< other endpoint: hop target, message peer.
  std::uint64_t seq = kNoSeq;  ///< message sequence number, or kNoSeq.
  std::uint64_t bytes = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Collects the event stream of one engine run in memory.  Opt in by
/// pointing sim::EngineOptions::trace at a sink; the engine calls
/// begin_run_topology() (which clears any previous run) and then
/// records events in execution order.  Not thread-safe: one sink per
/// concurrent run.
class TraceSink {
 public:
  // ---- engine-facing recording API ------------------------------------
  /// Begin a run on the n-cube (2^n nodes, n ports per node).
  void begin_run(int n) { begin_run_topology(word{1} << n, n); }

  /// Begin a run on any topology: explicit node count and port count
  /// (the directed-link stride, reported by dimensions()).
  void begin_run_topology(word nodes, int ports) {
    n_ = ports;
    nodes_ = nodes;
    events_.clear();
    phase_labels_.clear();
  }

  void phase_begin(std::int32_t phase, const std::string& label, double t) {
    phase_labels_.push_back(label);
    push({EventKind::phase_begin, phase, -1, t, t, 0, 0, kNoSeq, 0});
  }
  void phase_end(std::int32_t phase, double t) {
    push({EventKind::phase_end, phase, -1, t, t, 0, 0, kNoSeq, 0});
  }
  void send_begin(std::int32_t phase, word src, word dst, std::uint64_t seq,
                  std::uint64_t bytes, double t0, double t1) {
    push({EventKind::send_begin, phase, -1, t0, t1, src, dst, seq, bytes});
  }
  void send_end(std::int32_t phase, word dst, word src, std::uint64_t seq,
                std::uint64_t bytes, double t0, double t1) {
    push({EventKind::send_end, phase, -1, t0, t1, dst, src, seq, bytes});
  }
  void hop(std::int32_t phase, word from, word to, std::int32_t dim, std::uint64_t seq,
           std::uint64_t bytes, double t0, double t1) {
    push({EventKind::hop, phase, dim, t0, t1, from, to, seq, bytes});
  }
  void port_wait(EventKind kind, std::int32_t phase, word node, std::uint64_t seq,
                 double t0, double t1) {
    push({kind, phase, -1, t0, t1, node, 0, seq, 0});
  }
  void copy(std::int32_t phase, word node, std::uint64_t bytes, double t0, double t1) {
    push({EventKind::copy, phase, -1, t0, t1, node, 0, kNoSeq, bytes});
  }
  void stage(std::int32_t phase, word node, std::uint64_t bytes, double t0, double t1) {
    push({EventKind::stage, phase, -1, t0, t1, node, 0, kNoSeq, bytes});
  }
  void link_down(std::int32_t phase, word from, word to, std::int32_t dim,
                 std::uint64_t seq, double t0, double t1) {
    push({EventKind::link_down, phase, dim, t0, t1, from, to, seq, 0});
  }
  void retry(std::int32_t phase, word from, word to, std::int32_t dim, std::uint64_t seq,
             double t) {
    push({EventKind::retry, phase, dim, t, t, from, to, seq, 0});
  }
  void reroute(std::int32_t phase, word src, word dst, std::uint64_t seq, double t) {
    push({EventKind::reroute, phase, -1, t, t, src, dst, seq, 0});
  }
  void aborted(std::int32_t phase, word node, std::int32_t dim, std::uint64_t seq,
               double t) {
    push({EventKind::aborted, phase, dim, t, t, node, 0, seq, 0});
  }
  /// Kernel pipelines: stage `stage` of the merged pipeline timeline
  /// begins at simulated time t.  Analyzers window a merged trace into
  /// per-stage slices at these markers (obs::split_stages).
  void stage_boundary(std::int32_t stage, double t) {
    push({EventKind::stage_boundary, stage, -1, t, t, 0, 0, kNoSeq, 0});
  }

  /// Splice another sink's events onto this one with all timestamps
  /// shifted by `dt` and phase indices re-based past this sink's
  /// existing phase labels (each stage program restarts its phase
  /// numbering at 0; the merged pipeline timeline must not collide).
  /// Used by kernels::Pipeline to build one Chrome-exportable trace out
  /// of the per-stage engine runs.
  void merge_from(const TraceSink& other, double dt) {
    const std::int32_t base = static_cast<std::int32_t>(phase_labels_.size());
    for (const std::string& l : other.phase_labels_) phase_labels_.push_back(l);
    // No exact reserve: a pipeline merges once per stage, and growing
    // geometrically keeps the whole merge linear.
    for (TraceEvent e : other.events_) {
      e.phase += base;
      e.t0 += dt;
      e.t1 += dt;
      events_.push_back(e);
    }
  }

  // ---- consumer API ----------------------------------------------------
  /// Ports per node — the directed-link stride used by hop `dim` fields
  /// and link indices.  Equals the cube dimension count on cube runs.
  int dimensions() const noexcept { return n_; }
  word nodes() const noexcept { return nodes_; }
  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  const std::vector<std::string>& phase_labels() const noexcept { return phase_labels_; }
  bool empty() const noexcept { return events_.empty(); }

  /// Largest event end time (the run's makespan).
  double total_time() const noexcept;

  // Used by the binary reader to reconstruct a sink.
  void restore_topology(word nodes, int ports, std::vector<std::string> labels,
                        std::vector<TraceEvent> events) {
    n_ = ports;
    nodes_ = nodes;
    phase_labels_ = std::move(labels);
    events_ = std::move(events);
  }

 private:
  void push(const TraceEvent& e) { events_.push_back(e); }

  int n_ = 0;
  word nodes_ = 1;
  std::vector<TraceEvent> events_;
  std::vector<std::string> phase_labels_;
};

/// Chrome trace-event JSON ("traceEvents" array of complete events):
/// pid 0 carries one track per node (sends, copies, port waits), pid 1
/// one track per directed link (hop busy intervals).  Timestamps are
/// microseconds of simulated time.  Loads in chrome://tracing and
/// ui.perfetto.dev.
void write_chrome_trace(const TraceSink& trace, std::ostream& os);
bool write_chrome_trace_file(const TraceSink& trace, const std::string& path);

/// Compact binary log (fixed-width little-endian records behind a small
/// header; ~49 bytes/event vs ~200 for the JSON form).
void write_binary_trace(const TraceSink& trace, std::ostream& os);
bool write_binary_trace_file(const TraceSink& trace, const std::string& path);

/// Parse a binary log of the current version (the only one written);
/// throws std::runtime_error on a malformed stream or another version.
TraceSink read_binary_trace(std::istream& is);
TraceSink read_binary_trace_file(const std::string& path);

}  // namespace nct::obs
