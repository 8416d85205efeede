#include "shard/auto.hpp"

#include <thread>

#include "fault/fault.hpp"
#include "topology/partition.hpp"
#include "topology/topology.hpp"

namespace nct::shard {

std::uint32_t AutoPolicy::effective_shards() const noexcept {
  if (shards > 0) return shards;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

std::size_t run_timing_batch_auto(const sim::Engine& engine,
                                  std::span<const sim::CompiledProgram* const> programs,
                                  sim::BatchScratch& batch, int jobs, AutoScratch& scratch,
                                  const AutoPolicy& policy) {
  // Every program of a valid batch runs on the engine's machine (both
  // engines reject any other with ProgramError), so one decision covers
  // the whole batch.
  if (programs.empty() || policy.min_nodes == 0 || engine.params().nodes() < policy.min_nodes)
    return engine.run_timing_batch(programs, batch, jobs);

  // Sharded, one program after another (each run parallelises
  // internally across its shards).  Same per-slot FaultError capture as
  // the batched engine.
  if (batch.runs.size() < programs.size()) batch.runs.resize(programs.size());
  const ShardEngine sharded(engine.params(), engine.options());
  const topo::Partition part =
      topo::make_partition(*topo::make_topology(engine.params().topology, engine.params().n),
                           policy.effective_shards());
  std::size_t ok = 0;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    sim::BatchRun& slot = batch.runs[i];
    try {
      sharded.run_timing(*programs[i], part, scratch.shard, slot.result);
      slot.ok = true;
      slot.error.clear();
      ++ok;
    } catch (const fault::FaultError& e) {
      slot.ok = false;
      slot.error = e.what();
    }
  }
  return ok;
}

}  // namespace nct::shard
