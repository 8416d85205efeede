// Event-driven execution of phased communication programs on a Boolean
// n-cube machine model.  There is one executor (sim/compile.hpp plus the
// per-event steps of sim/exec_step.hpp) with two modes: data mode moves
// payloads and returns the final memories, timing-only mode computes the
// same times, statistics and event streams without touching memory.
//
// Timing model:
//  * store-and-forward: each hop of a message costs
//    ceil(bytes/B_m) * tau + bytes * t_c and occupies the traversed
//    directed link for that duration; a hop starts when the previous hop
//    has completed and the link is free;
//  * cut-through: a message reserves its whole route and arrives after
//    hops * tau + bytes * t_c (bit-serial pipelining: the start-up is not
//    multiplied by the serialisation time);
//  * one-port machines serialise each node's own injections on a send
//    port and its final-hop deliveries on a receive port; send and
//    receive are concurrent (bidirectional links, Section 2).
//    Intermediate forwarding is performed by the routing logic and is
//    not charged to the ports;
//  * charged local copies cost bytes * t_copy on the node's clock;
//  * phases are separated by a global barrier.
//
// Data model: node memories hold element addresses; sends read their
// source slots as of the start of the phase's send step (so concurrent
// exchanges swap cleanly) and deliver into destination slots; a slot
// written twice in one phase is a planner bug that compile() rejects.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sim/model.hpp"
#include "sim/program.hpp"
#include "topology/hypercube.hpp"

namespace nct::sim {

struct PhaseStats {
  std::string label;
  double start = 0.0;
  double end = 0.0;
  std::size_t sends = 0;
  std::size_t elements = 0;
  std::size_t hops = 0;
  double copy_time = 0.0;  ///< summed charged copy/staging time.

  double duration() const noexcept { return end - start; }
};

struct RunResult {
  double total_time = 0.0;
  double total_copy_time = 0.0;
  std::vector<PhaseStats> phases;
  std::size_t total_sends = 0;
  std::size_t total_elements = 0;   ///< elements injected (not hop-weighted).
  std::size_t total_hops = 0;       ///< message-hops traversed.
  double max_link_busy = 0.0;       ///< max cumulative busy time of any link.
  Memory memory;                    ///< final node memories.
  // Fault injection (all zero on a healthy run):
  std::size_t total_reroutes = 0;   ///< sends injected on detour routes.
  std::size_t total_retries = 0;    ///< hop re-injections after transient outages.
  double total_fault_wait = 0.0;    ///< summed simulated time blocked on down links.
};

struct EngineOptions {
  /// Optional structured event sink (not owned; see obs/trace.hpp).  The
  /// engine clears it at run start and records typed events with
  /// simulated timestamps; data-mode and timing-only runs of the same
  /// program emit identical event streams.  Link occupancy is read from
  /// its hop events (obs::peak_link_overlap).
  obs::TraceSink* trace = nullptr;
  /// Optional fault model (not owned; see fault/fault.hpp).  Null or
  /// empty: healthy machine, with times, stats and event streams
  /// bit-identical to a run without the field.  With faults, both
  /// modes (and the sharded engine) still agree exactly: hops blocked by a transient outage
  /// wait and retry per `retry`; a permanent outage on a route raises
  /// fault::FaultError.
  const fault::FaultModel* faults = nullptr;
  fault::RetryPolicy retry{};
};

class CompiledProgram;  // compile.hpp
class RunScratch;       // scratch.hpp
struct BatchScratch;    // batch.hpp

class Engine {
 public:
  explicit Engine(MachineParams params, EngineOptions options = {});

  const MachineParams& params() const noexcept { return params_; }
  const EngineOptions& options() const noexcept { return options_; }

  /// Execute `program` starting from `initial` node memories: exactly
  /// run(compile(program, params()), initial).  Errors therefore come in
  /// a fixed order: compile() first raises the same ProgramError it
  /// raises on its own for any structural violation anywhere in the
  /// program (a bad route in phase 1 wins over an empty read in phase
  /// 0); then a mis-sized `initial` raises "initial memory has wrong
  /// node count" / "node memory has wrong slot count"; only then, while
  /// executing, does a read of an empty slot raise "send reads empty" /
  /// "copy reads empty".
  RunResult run(const Program& program, Memory initial) const;

  /// Execute a compiled program (see compile.hpp) in data mode: payloads
  /// move and every structural check already happened at compile time;
  /// only the data-dependent empty-slot reads are checked here.
  RunResult run(const CompiledProgram& compiled, Memory initial) const;

  /// Timing-only fast path: identical simulated times and phase stats,
  /// but no memory image is read or written (result.memory stays empty).
  /// For parameter sweeps whose data correctness was already established
  /// by a data-mode run of the same planner.
  RunResult run_timing(const CompiledProgram& compiled) const;

  /// Zero-allocation timing-only run: all mutable state lives in
  /// `scratch` and the result is written into `out` in place, so a loop
  /// over many programs performs no steady-state heap allocations.
  /// Identical output to run_timing(compiled).  `scratch` must not be
  /// shared between concurrent calls.
  void run_timing(const CompiledProgram& compiled, RunScratch& scratch,
                  RunResult& out) const;

  /// Execute a batch of timing-only runs (see batch.hpp), splitting the
  /// programs contiguously across `jobs` worker threads.  Results land
  /// at the matching index of `batch.runs`, so output is deterministic
  /// and independent of `jobs`.  A run aborted by fault::FaultError is
  /// captured in its slot (ok = false) without affecting the others;
  /// any other exception propagates.  Returns the number of successful
  /// runs.  With a trace sink configured the batch runs serially, as a
  /// sink observes one event stream.
  std::size_t run_timing_batch(std::span<const CompiledProgram* const> programs,
                               BatchScratch& batch, int jobs = 1) const;

 private:
  MachineParams params_;
  EngineOptions options_;
};

/// Compare a final memory image against an expected one; reports the
/// first few mismatches in `message`.
struct VerifyResult {
  bool ok = true;
  std::string message;
};

VerifyResult verify_memory(const Memory& actual, const Memory& expected);

}  // namespace nct::sim
