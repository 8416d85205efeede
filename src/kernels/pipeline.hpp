// Kernel pipelines on the communication substrate.
//
// A numerical kernel (matrix multiplication, here) is not one program
// but a *composition*: distribute operands, run compute/shift rounds,
// collect results.  `Pipeline` models exactly that — an ordered list of
// stages, each either a *comm* stage (emits a sim::Program chosen from a
// small per-stage candidate space) or a *compute* stage (node-local
// arithmetic on the host-side values shadowing the placed element ids).
//
// The load-bearing idea is the **data-placement contract**: every stage
// declares, as a pure function of its entry memory image, the exact exit
// image (which element id sits in which slot of which node).  The
// pipeline verifies the contract after every stage, on every execution
// path — compiled data-mode, timing-only (via apply_data) and the
// threaded runtime — so a kernel that completes has *proven*
// where every element of A, B and C lives at every stage boundary.
// Compute stages additionally refuse to run unless the ids their
// schedule needs are actually present, which is what makes the final
// numerical comparison against the host reference meaningful: the
// values were computed from operands that provably arrived.
//
// Comm stages expose a candidate space (algorithm family + packet size)
// with the *naive* plan at index 0; tune.hpp optimizes the composition
// per stage and caches it under a pipeline-signed key.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sim/model.hpp"
#include "sim/program.hpp"
#include "topology/routed.hpp"
#include "topology/topology.hpp"
#include "tune/space.hpp"

namespace nct::kernels {

using cube::word;

/// Raised when a stage violates its data-placement contract, a compute
/// stage finds its operands missing, or a pipeline is misassembled.
/// Always a kernel bug (or a deliberately broken test fixture) — faults
/// surface as fault::FaultError, never as PipelineError.
class PipelineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Everything a comm stage may consult while planning: the machine, the
/// instantiated topology, and the fault model the run will execute under
/// (null = healthy).  Routed stages turn a non-null model into a
/// fault::route_around router, so their plans detour around permanently
/// failed links instead of aborting.
struct PlanContext {
  const sim::MachineParams& machine;
  const topo::Topology& topology;
  const fault::FaultModel* faults = nullptr;
};

class Stage {
 public:
  virtual ~Stage() = default;

  virtual const std::string& name() const noexcept = 0;
  virtual bool is_comm() const noexcept = 0;

  /// Called once per Pipeline::run before any stage executes, so a
  /// pipeline object can be run repeatedly (compute stages reset their
  /// accumulators here).
  virtual void reset() {}

  /// The data-placement contract: the exact exit memory image for this
  /// entry image.  Pure — never touches stage state — so compositions
  /// can be advanced symbolically (tune.hpp) without executing anything.
  virtual sim::Memory expected(const sim::Memory& entry) const = 0;

  /// Comm stages: the candidate plans for this stage on `machine`,
  /// naive plan first (index 0 is what an untuned composition runs).
  virtual std::vector<tune::Candidate> space(const sim::MachineParams& machine) const;

  /// Comm stages: emit the program realising the contract under
  /// `candidate`.  The program must be valid for any entry image that
  /// satisfies the stage's precondition (plans depend on the schedule,
  /// never on element identities).
  virtual sim::Program plan(const sim::Memory& entry, const tune::Candidate& candidate,
                            const PlanContext& ctx) const;

  /// Compute stages: verify the scheduled operand ids are present in
  /// `entry` (PipelineError otherwise), update host-side values, and
  /// return the exit image (== expected(entry)).
  virtual sim::Memory apply(sim::Memory entry);
};

/// Apply a one-phase list of slot moves to a memory image (snapshot
/// semantics: all reads precede all writes; non-keep sources vacate).
/// This is the reference executor for MoveStage contracts.
sim::Memory apply_moves(const sim::Memory& entry, const std::vector<topo::SlotMove>& moves);

/// Shift every slot reference in `program` up by `base` and set its
/// local_slots, so a planner that works on slots [0, K*N) (the all-to-all
/// exchange) can operate on an embedded area of a larger kernel memory.
void offset_program_slots(sim::Program& program, word base, word local_slots);

/// Declarative comm stage: a contract given by one phase of slot moves,
/// plus the alternative plans that realise the same contract.
struct MoveStageSpec {
  std::string name;
  /// The contract (and the routed plan): executed as a single phase.
  std::vector<topo::SlotMove> moves;
  word local_slots = 0;
  /// Optional ring decomposition: successive single-step phases whose
  /// composition equals `moves` (hyper-systolic shifts between
  /// ring-adjacent nodes).  Non-empty enables Family::ring.
  std::vector<std::vector<topo::SlotMove>> ring_phases;
  /// Optional cube exchange family: the contract is the all-to-all
  /// convention with `exchange_block` elements per pair acting on slots
  /// [exchange_offset, exchange_offset + nodes * block).  Enabled on
  /// hypercube machines only.
  bool exchange = false;
  word exchange_block = 0;
  word exchange_offset = 0;
};

class MoveStage final : public Stage {
 public:
  explicit MoveStage(MoveStageSpec spec);

  const std::string& name() const noexcept override { return spec_.name; }
  bool is_comm() const noexcept override { return true; }
  sim::Memory expected(const sim::Memory& entry) const override;
  std::vector<tune::Candidate> space(const sim::MachineParams& machine) const override;
  sim::Program plan(const sim::Memory& entry, const tune::Candidate& candidate,
                    const PlanContext& ctx) const override;

  const MoveStageSpec& spec() const noexcept { return spec_; }

 private:
  MoveStageSpec spec_;
};

/// Which execution substrate runs the comm stages.  All three agree
/// bit-identically on the final memory image; `timing` additionally
/// reports simulated seconds without moving payloads (placement advances
/// via sim::apply_data), and `threads` runs real message-passing threads
/// (no simulated clock, so stage seconds read 0).  Every path checks
/// each stage's placement contract (Pipeline::run).
enum class ExecPath { compiled, timing, threads };

struct PipelineOptions {
  ExecPath path = ExecPath::compiled;
  /// Fault scenario (not owned).  Routed/ring stages plan detours around
  /// permanent link faults via fault::route_around; a stage whose plan
  /// cannot avoid the faults (severed node, exchange family) raises
  /// fault::FaultError naming the stage.
  const fault::FaultSpec* faults = nullptr;
  fault::RetryPolicy retry{};
  /// Optional merged trace (not owned): stage events re-based onto one
  /// pipeline clock, with a stage_boundary marker opening every stage so
  /// obs::split_stages can window analyzers per stage.  Ignored on the
  /// threads path (no simulated timestamps).
  obs::TraceSink* trace = nullptr;
  /// Per-stage plan choice, parallel to Pipeline::stages() (compute
  /// stages ignore theirs).  Empty = naive: every comm stage runs its
  /// space()[0].
  std::vector<tune::Candidate> composition;
};

struct StageReport {
  std::string name;
  bool comm = false;
  tune::Candidate candidate{};  ///< comm stages: the plan that ran.
  double seconds = 0.0;         ///< simulated comm time (0 for compute/threads).
  std::size_t sends = 0;
};

struct PipelineResult {
  sim::Memory memory;            ///< final node memories.
  double seconds = 0.0;          ///< summed simulated comm time.
  std::vector<StageReport> stages;
};

class Pipeline {
 public:
  /// `signature` canonically names the kernel instance (e.g.
  /// "hsmm nm=64 p=16 K=4 @ torus(4x4)"): it keys the per-stage plan
  /// cache, so it must determine every stage's contract.
  Pipeline(std::string signature, sim::MachineParams machine);

  Pipeline& add(std::shared_ptr<Stage> stage);

  const std::string& signature() const noexcept { return signature_; }
  const sim::MachineParams& machine() const noexcept { return machine_; }
  const std::shared_ptr<const topo::Topology>& topology() const noexcept { return topology_; }
  const std::vector<std::shared_ptr<Stage>>& stages() const noexcept { return stages_; }

  /// Execute every stage from `entry`, verifying each stage's placement
  /// contract on the way (PipelineError on the first violation).
  PipelineResult run(sim::Memory entry, const PipelineOptions& options = {}) const;

 private:
  std::string signature_;
  sim::MachineParams machine_;
  std::shared_ptr<const topo::Topology> topology_;
  std::vector<std::shared_ptr<Stage>> stages_;
};

}  // namespace nct::kernels
