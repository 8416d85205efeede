#include "kernels/pipeline.hpp"

#include <span>
#include <stdexcept>
#include <utility>

#include "comm/all_to_all.hpp"
#include "cube/bits.hpp"
#include "runtime/executor.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"

namespace nct::kernels {

std::vector<tune::Candidate> Stage::space(const sim::MachineParams&) const {
  throw PipelineError("stage " + name() + " is not a comm stage");
}

sim::Program Stage::plan(const sim::Memory&, const tune::Candidate&,
                         const PlanContext&) const {
  throw PipelineError("stage " + name() + " is not a comm stage");
}

sim::Memory Stage::apply(sim::Memory) {
  throw PipelineError("stage " + name() + " is not a compute stage");
}

sim::Memory apply_moves(const sim::Memory& entry, const std::vector<topo::SlotMove>& moves) {
  sim::Memory out = entry;
  for (const topo::SlotMove& m : moves) {
    if (m.keep_source) continue;
    auto& node = out.at(static_cast<std::size_t>(m.src));
    for (const sim::slot s : m.src_slots) node.at(static_cast<std::size_t>(s)) = sim::kEmptySlot;
  }
  for (const topo::SlotMove& m : moves) {
    const auto& src = entry.at(static_cast<std::size_t>(m.src));
    auto& dst = out.at(static_cast<std::size_t>(m.dst));
    for (std::size_t i = 0; i < m.src_slots.size(); ++i) {
      dst.at(static_cast<std::size_t>(m.dst_slots[i])) =
          src.at(static_cast<std::size_t>(m.src_slots[i]));
    }
  }
  return out;
}

void offset_program_slots(sim::Program& program, word base, word local_slots) {
  const auto shift = [base](std::span<sim::slot> slots) {
    for (sim::slot& s : slots) s += base;
  };
  for (sim::Phase& phase : program.phases) {
    for (sim::CopyOp& op : phase.pre_copies) {
      shift(op.src_slots);
      shift(op.dst_slots);
    }
    shift(phase.sends.src_slot_pool());
    shift(phase.sends.dst_slot_pool());
    for (sim::CopyOp& op : phase.post_copies) {
      shift(op.src_slots);
      shift(op.dst_slots);
    }
  }
  program.local_slots = local_slots;
}

MoveStage::MoveStage(MoveStageSpec spec) : spec_(std::move(spec)) {
  if (spec_.name.empty()) throw std::invalid_argument("MoveStage: empty name");
  if (spec_.local_slots == 0) throw std::invalid_argument("MoveStage: local_slots == 0");
}

sim::Memory MoveStage::expected(const sim::Memory& entry) const {
  return apply_moves(entry, spec_.moves);
}

std::vector<tune::Candidate> MoveStage::space(const sim::MachineParams& machine) const {
  std::vector<tune::Candidate> out;
  // Naive first: one routed message per move — the "call the routing
  // logic once per pair" baseline the paper measures against.
  out.push_back({tune::Family::routed, 0, comm::BufferMode::buffered, 0, 0.0});
  // The cube exchange kernel works on power-of-two pair blocks only.
  if (spec_.exchange && machine.topology.is_cube() && cube::is_pow2(spec_.exchange_block)) {
    out.push_back({tune::Family::exchange, 0, comm::BufferMode::buffered, 0, 0.0});
    out.push_back({tune::Family::exchange, 0, comm::BufferMode::unbuffered, 0, 0.0});
  }
  if (!spec_.ring_phases.empty())
    out.push_back({tune::Family::ring, 0, comm::BufferMode::buffered, 0, 0.0});
  word total = 0;
  for (const topo::SlotMove& m : spec_.moves) total += static_cast<word>(m.src_slots.size());
  for (const word b : tune::Space::packet_grid(machine, static_cast<double>(total)))
    out.push_back({tune::Family::routed, b, comm::BufferMode::buffered, 0, 0.0});
  return out;
}

namespace {

topo::RoutedOptions routed_options(const std::string& label, const tune::Candidate& candidate,
                                   const PlanContext& ctx) {
  topo::RoutedOptions opt;
  opt.label = label;
  opt.packet_elements = candidate.packet_elements;
  if (ctx.faults != nullptr && !ctx.faults->empty()) {
    const fault::FaultModel* model = ctx.faults;
    const topo::Topology* t = &ctx.topology;
    opt.router = [model, t, label](word src, word dst) {
      auto route = fault::route_around(*t, src, dst, *model);
      if (!route)
        throw fault::FaultError(label + ": no fault-free route " + std::to_string(src) +
                                " -> " + std::to_string(dst));
      return *route;
    };
  }
  return opt;
}

}  // namespace

sim::Program MoveStage::plan(const sim::Memory&, const tune::Candidate& candidate,
                             const PlanContext& ctx) const {
  switch (candidate.family) {
    case tune::Family::routed:
      return topo::plan_routed_moves(ctx.topology, spec_.moves, spec_.local_slots,
                                     routed_options(spec_.name, candidate, ctx));
    case tune::Family::ring: {
      if (spec_.ring_phases.empty())
        throw PipelineError("stage " + spec_.name + " has no ring decomposition");
      sim::Program program;
      for (std::size_t s = 0; s < spec_.ring_phases.size(); ++s) {
        const std::string label = spec_.name + " ring step " + std::to_string(s);
        sim::Program step =
            topo::plan_routed_moves(ctx.topology, spec_.ring_phases[s], spec_.local_slots,
                                    routed_options(label, candidate, ctx));
        if (s == 0) {
          program = std::move(step);
        } else {
          for (sim::Phase& phase : step.phases) program.phases.push_back(std::move(phase));
        }
      }
      return program;
    }
    case tune::Family::exchange: {
      if (!spec_.exchange || !ctx.machine.topology.is_cube() ||
          !cube::is_pow2(spec_.exchange_block))
        throw PipelineError("stage " + spec_.name + " has no exchange plan here");
      sim::Program program = comm::all_to_all_exchange(
          ctx.machine.n, spec_.exchange_block,
          comm::BufferPolicy{candidate.buffer_mode, candidate.b_copy_elements});
      offset_program_slots(program, spec_.exchange_offset, spec_.local_slots);
      return program;
    }
    default:
      throw PipelineError("stage " + spec_.name + ": unsupported plan family " +
                          std::string(tune::family_name(candidate.family)));
  }
}

Pipeline::Pipeline(std::string signature, sim::MachineParams machine)
    : signature_(std::move(signature)), machine_(std::move(machine)),
      topology_(topo::make_topology(machine_.topology, machine_.n)) {
  if (signature_.empty()) throw std::invalid_argument("Pipeline: empty signature");
}

Pipeline& Pipeline::add(std::shared_ptr<Stage> stage) {
  if (stage == nullptr) throw std::invalid_argument("Pipeline: null stage");
  stages_.push_back(std::move(stage));
  return *this;
}

PipelineResult Pipeline::run(sim::Memory current, const PipelineOptions& options) const {
  if (!options.composition.empty() && options.composition.size() != stages_.size())
    throw std::invalid_argument("Pipeline: composition size != stage count");
  fault::FaultModel model;
  if (options.faults != nullptr && !options.faults->empty())
    model = fault::FaultModel(topology_, *options.faults);
  const fault::FaultModel* faults = model.empty() ? nullptr : &model;
  const PlanContext ctx{machine_, *topology_, faults};

  if (options.trace != nullptr)
    options.trace->begin_run_topology(topology_->nodes(), topology_->ports());
  for (const auto& stage : stages_) stage->reset();

  PipelineResult result;
  double clock = 0.0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    Stage& stage = *stages_[i];
    StageReport report;
    report.name = stage.name();
    report.comm = stage.is_comm();
    const sim::Memory exit_expected = stage.expected(current);
    if (options.trace != nullptr)
      options.trace->stage_boundary(static_cast<std::int32_t>(i), clock);
    try {
      if (!stage.is_comm()) {
        current = stage.apply(std::move(current));
      } else {
        const tune::Candidate candidate = options.composition.empty()
                                              ? stage.space(machine_).at(0)
                                              : options.composition[i];
        report.candidate = candidate;
        const sim::Program program = stage.plan(current, candidate, ctx);
        report.sends = program.total_sends();
        obs::TraceSink stage_trace;
        sim::EngineOptions eopt;
        eopt.faults = faults;
        eopt.retry = options.retry;
        if (options.trace != nullptr && options.path != ExecPath::threads)
          eopt.trace = &stage_trace;
        switch (options.path) {
          case ExecPath::compiled: {
            const sim::Engine engine(machine_, eopt);
            const sim::CompiledProgram compiled = sim::compile(program, machine_);
            sim::RunResult r = engine.run(compiled, std::move(current));
            report.seconds = r.total_time;
            current = std::move(r.memory);
            break;
          }
          case ExecPath::timing: {
            const sim::Engine engine(machine_, eopt);
            const sim::CompiledProgram compiled = sim::compile(program, machine_);
            const sim::RunResult r = engine.run_timing(compiled);
            report.seconds = r.total_time;
            current = sim::apply_data(program, std::move(current));
            break;
          }
          case ExecPath::threads: {
            // The plan already detours around permanent faults (the
            // routed planner saw the model), so the healthy runtime
            // executes it as-is; transient-fault injection lives in the
            // dedicated runtime tests.
            current = runtime::execute_program_threads(program, std::move(current));
            break;
          }
        }
        if (options.trace != nullptr && !stage_trace.empty())
          options.trace->merge_from(stage_trace, clock);
        clock += report.seconds;
      }
    } catch (const fault::FaultError& e) {
      throw fault::FaultError("stage " + stage.name() + ": " + e.what());
    } catch (const sim::ProgramError& e) {
      throw PipelineError("stage " + stage.name() + ": " + e.what());
    }
    const sim::VerifyResult v = sim::verify_memory(current, exit_expected);
    if (!v.ok)
      throw PipelineError("stage " + stage.name() +
                          " violated its placement contract: " + v.message);
    result.stages.push_back(std::move(report));
  }
  result.seconds = clock;
  result.memory = std::move(current);
  return result;
}

}  // namespace nct::kernels
