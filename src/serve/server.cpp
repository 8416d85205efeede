#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "kernels/boolmm.hpp"
#include "kernels/matmul.hpp"
#include "kernels/tune.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "topology/topology.hpp"
#include "tune/serialize.hpp"

namespace nct::serve {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns, std::uint64_t end_ns) {
  return end_ns <= start_ns ? 0.0 : static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Byte bound of the compiled-program cache.  The serving workloads
/// measured so far hold 39 or fewer distinct programs (3.4 MiB in all,
/// the largest 333 KiB), so the bound only caps a stream with a wide key
/// space.
constexpr std::size_t kProgramCacheBytes = std::size_t{64} << 20;

/// Largest cube the simulator is sized for; requests beyond it are
/// structurally bad rather than "try and run out of memory".
constexpr int kMaxCubeDims = 24;

/// Is a kernel request structurally executable on its machine?
bool kernel_request_ok(const Request& rq) {
  const std::uint64_t nodes = rq.machine.nodes();
  const std::uint64_t nm = rq.kernel.matrix;
  if (nodes == 0 || nm == 0 || nm % nodes != 0) return false;
  switch (rq.kernel.kind) {
    case KernelKind::hsmm: return true;
    case KernelKind::boolmm: return nm % 64 == 0 && rq.kernel.density >= 1;
    case KernelKind::none: break;
  }
  return false;
}

/// Result of executing one kernel-pipeline request inside a cycle.
struct KernelOutcome {
  bool ok = false;
  bool cache_hit = false;
  double seconds = 0.0;
  tune::Candidate plan;
};

/// Build the requested kernel, resolve its per-stage composition from
/// the pipeline plan cache (naive space()[0] for cold stages), and run
/// it on the timing path with every stage's placement contract checked.
KernelOutcome run_kernel_request(const Request& rq, tune::PlanCache& cache) {
  KernelOutcome out;
  try {
    std::unique_ptr<kernels::HsmmKernel> hsmm;
    std::unique_ptr<kernels::BoolmmKernel> boolmm;
    const kernels::Pipeline* pipeline = nullptr;
    sim::Memory entry;
    if (rq.kernel.kind == KernelKind::hsmm) {
      kernels::HsmmOptions opt;
      opt.nm = rq.kernel.matrix;
      opt.bundle = rq.kernel.bundle;
      opt.seed = rq.kernel.seed;
      hsmm = std::make_unique<kernels::HsmmKernel>(rq.machine, opt);
      pipeline = &hsmm->pipeline();
      entry = hsmm->initial_memory();
    } else {
      kernels::BoolmmOptions opt;
      opt.nb = rq.kernel.matrix;
      opt.seed = rq.kernel.seed;
      opt.density = rq.kernel.density;
      boolmm = std::make_unique<kernels::BoolmmKernel>(rq.machine, opt);
      pipeline = &boolmm->pipeline();
      entry = boolmm->initial_memory();
    }

    const fault::FaultSpec* fs = rq.faults.empty() ? nullptr : &rq.faults;
    kernels::PipelineOptions popt;
    popt.path = kernels::ExecPath::timing;
    popt.faults = fs;
    // Cache keys must match what tune_pipeline wrote: same signature,
    // stage identity and candidate budget.
    const std::size_t budget = kernels::KernelTuneOptions{}.max_candidates;
    const auto& stages = pipeline->stages();
    bool any_comm = false, all_hits = true, plan_set = false;
    for (std::size_t i = 0; i < stages.size(); ++i) {
      if (!stages[i]->is_comm()) {
        popt.composition.push_back({});
        continue;
      }
      any_comm = true;
      const tune::TuneKey key = tune::make_pipeline_key(
          rq.machine, pipeline->signature(), i, stages[i]->name(), fs, budget);
      if (const auto hit = cache.find(key)) {
        popt.composition.push_back(hit->choice);
      } else {
        all_hits = false;
        popt.composition.push_back(stages[i]->space(rq.machine).at(0));
      }
      if (!plan_set) {
        out.plan = popt.composition.back();
        plan_set = true;
      }
    }
    out.cache_hit = any_comm && all_hits;
    const kernels::PipelineResult result = pipeline->run(std::move(entry), popt);
    out.seconds = result.seconds;
    out.ok = true;
  } catch (const std::exception&) {
    // Severed faults, an inexpressible shape, or a contract violation:
    // the request serves infeasible and the cycle proceeds.
  }
  return out;
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      owned_cache_(options_.cache != nullptr ? nullptr
                                             : std::make_unique<tune::PlanCache>()),
      cache_(options_.cache != nullptr ? options_.cache : owned_cache_.get()),
      queue_(QueueOptions{options_.queue_capacity, options_.tenant_share}),
      resolver_(cache_, options_.space),
      programs_(kProgramCacheBytes),
      occupancy_("serve/batch_occupancy",
                 {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384},
                 "") {
  stats_.queue_capacity = queue_.capacity();
  // Threads start only after every member is constructed.
  dispatcher_ = std::thread(&Server::dispatcher_main, this);
  tuner_ = std::thread(&Server::tuner_main, this);
}

Server::~Server() { stop(); }

namespace {

/// Structural problems that reject a request before it takes a slot.
bool malformed(const Request& request) {
  const sim::MachineParams& m = request.machine;
  if (m.n < 0 || m.n > kMaxCubeDims) return true;
  if (request.kernel.kind == KernelKind::none) {
    // The spec pair's processors must fit the machine's nodes: 2^n on
    // the cube, the topology's node count off it (where n is 0).
    const cube::word nodes = m.topology.node_count(m.n);
    const auto fits = [nodes](const cube::PartitionSpec& spec) {
      const int bits = spec.processor_bits();
      return bits < 64 && (cube::word{1} << bits) <= nodes;
    };
    return request.before.shape().m() != request.after.shape().m() || !fits(request.before) ||
           !fits(request.after);
  }
  // Kernel requests ignore the spec pair; shape/divisibility problems
  // reject synchronously instead of consuming a queue slot.
  return !kernel_request_ok(request);
}

}  // namespace

void Server::count_admissions(std::uint64_t requests, RejectReason reason) {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.submitted += requests;
  switch (reason) {
    case RejectReason::none: stats_.admitted += requests; break;
    case RejectReason::queue_full: stats_.rejected_full += requests; break;
    case RejectReason::tenant_over_share: stats_.rejected_share += requests; break;
    case RejectReason::stopped: stats_.rejected_stopped += requests; break;
    case RejectReason::bad_request: stats_.rejected_bad += requests; break;
  }
}

Admission Server::submit(Request request) {
  const Admission a = malformed(request) ? Admission{false, RejectReason::bad_request, 0}
                                         : queue_.try_push(std::move(request));
  count_admissions(1, a.reason);
  return a;
}

std::vector<Admission> Server::submit_all(std::vector<Request> requests) {
  const bool bad = std::any_of(requests.begin(), requests.end(), malformed);
  const Admission a = bad ? Admission{false, RejectReason::bad_request, 0}
                          : queue_.try_push_all(requests);
  count_admissions(requests.size(), a.reason);
  std::vector<Admission> out(requests.size(), a);
  if (a.admitted)
    for (std::size_t i = 0; i < out.size(); ++i) out[i].id = a.id + i;
  return out;
}

void Server::dispatcher_main() {
  std::vector<Admitted> items;
  for (;;) {
    items.clear();
    // Zero drained means closed *and* empty: the backlog is served
    // before the dispatcher exits.
    if (queue_.pop_ready(items, options_.max_cycle) == 0) return;
    serve_cycle(items);
  }
}

void Server::serve_cycle(std::vector<Admitted>& items) {
  const std::uint64_t cycle_start = now_ns();
  const std::lock_guard<std::mutex> cycle_lock(cycle_mu_);

  // 1. Resolve every request, in admission order, single-threaded: the
  //    hit/miss pattern depends only on the stream and the cache state
  //    at the epoch boundary.  Kernel requests bypass the transpose
  //    resolver: their composition resolves per stage against the
  //    pipeline plan cache and they execute immediately (the timing-path
  //    pipeline run is itself deterministic).
  std::vector<const Resolution*> res(items.size(), nullptr);
  std::vector<KernelOutcome> kernel_out(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].request.kernel.kind != KernelKind::none)
      kernel_out[i] = run_kernel_request(items[i].request, *cache_);
    else
      res[i] = &resolver_.resolve(items[i].request);
  }

  // 2. Hand cold misses to the background tuner *before* any response
  //    is written: drain()'s tune barrier triggers on response
  //    completion, so every job of this cycle is already queued by the
  //    time a drainer can pass the response wait.
  enqueue_tunes(resolver_.take_tune_jobs());

  // 3. Coalesce: one slot per distinct problem (Resolution identity —
  //    equal key bytes return the same memo object), slots grouped by
  //    (machine, faults) since one Engine serves one machine model.
  struct Slot {
    const Resolution* res = nullptr;
    std::vector<std::size_t> items;  ///< indices into `items`.
    bool executed = false;           ///< reached an engine batch run.
    bool ok = false;
    double simulated = 0.0;
  };
  std::vector<Slot> slots;
  std::unordered_map<const Resolution*, std::size_t> slot_of;
  struct Group {
    std::vector<std::size_t> slots;
  };
  std::vector<Group> groups;
  std::unordered_map<std::string, std::size_t> group_of;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (res[i] == nullptr || !res[i]->feasible) continue;
    const auto [it, fresh] = slot_of.try_emplace(res[i], slots.size());
    if (fresh) {
      Slot slot;
      slot.res = res[i];
      slots.push_back(std::move(slot));
      tune::ByteWriter w;
      tune::serialize(w, items[i].request.machine);
      tune::serialize(w, items[i].request.faults);
      const tune::Bytes gkey = w.take();
      const auto [git, gfresh] =
          group_of.try_emplace(std::string(gkey.begin(), gkey.end()), groups.size());
      if (gfresh) groups.push_back(Group{});
      groups[git->second].slots.push_back(it->second);
    }
    slots[it->second].items.push_back(i);
  }

  // 4. Execute each group as one batched timing-only engine pass.
  //    Each slot's program comes from the compiled-program cache; only
  //    a miss plans and compiles, on a Tuner built at the group's first
  //    miss.  `compiled` holds the programs, so an eviction later in
  //    the cycle cannot free one the batch still runs.  Results land at
  //    the program's index (run_timing_batch's determinism guarantee),
  //    so slot times are independent of `jobs`.
  for (const Group& g : groups) {
    const Request& proto = items[slots[g.slots.front()].items.front()].request;
    const fault::FaultSpec* fs = proto.faults.empty() ? nullptr : &proto.faults;
    fault::FaultModel fault_model;
    try {
      if (fs != nullptr)
        fault_model = fault::FaultModel(
            topo::make_topology(proto.machine.topology, proto.machine.n), *fs);
    } catch (const std::exception&) {
      continue;  // malformed fault spec: every slot infeasible
    }
    std::vector<ProgramCache::Program> compiled;
    std::vector<const sim::CompiledProgram*> progs;
    std::vector<std::size_t> prog_slot;
    std::optional<tune::Tuner> tuner;
    for (const std::size_t s : g.slots) {
      const Resolution& rs = *slots[s].res;
      const Request& rq = items[slots[s].items.front()].request;
      ProgramCache::Program program;
      try {
        // A planning rejection (fault-severed routes, or a pair the
        // family cannot express) comes back null: the slot serves
        // infeasible, now and whenever the cache still remembers it.
        program = programs_.get(ProgramCache::make_key(rs.key, rs.choice), [&] {
          if (!tuner) {
            tune::TuneOptions topt;
            topt.jobs = options_.jobs;
            topt.space = options_.space;
            topt.faults = fs;
            tuner.emplace(proto.machine, topt);
          }
          return std::make_shared<const sim::CompiledProgram>(
              sim::compile(tuner->build(rq.before, rq.after, rs.choice), proto.machine));
        });
      } catch (const std::exception&) {
        // Resource exhaustion: this slot alone serves infeasible, and
        // nothing is remembered.
      }
      if (program == nullptr) continue;
      progs.push_back(program.get());
      prog_slot.push_back(s);
      compiled.push_back(std::move(program));
    }
    if (progs.empty()) continue;
    sim::EngineOptions eopt;
    eopt.faults = fault_model.empty() ? nullptr : &fault_model;
    const sim::Engine engine(proto.machine, eopt);
    engine.run_timing_batch(progs, batch_scratch_, options_.jobs);
    for (std::size_t k = 0; k < progs.size(); ++k) {
      const sim::BatchRun& run = batch_scratch_.runs[k];
      slots[prog_slot[k]].executed = true;
      if (run.ok) {
        slots[prog_slot[k]].ok = true;
        slots[prog_slot[k]].simulated = run.result.total_time;
      }
    }
  }

  // 5. Responses, in cycle (= admission) order.
  std::vector<Response> out;
  out.reserve(items.size());
  std::uint64_t infeasible = 0, hits = 0, misses = 0, kernels_ok = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    Response r;
    r.id = items[i].id;
    r.tenant = items[i].request.tenant;
    r.queue_seconds = seconds_since(items[i].admitted_ns, cycle_start);
    const Resolution* rs = res[i];
    if (rs == nullptr) {
      const KernelOutcome& k = kernel_out[i];
      r.plan = k.plan;
      r.cache_hit = k.cache_hit;
      k.cache_hit ? ++hits : ++misses;
      if (k.ok) {
        r.simulated_seconds = k.seconds;
        r.batch_size = 1;
        ++kernels_ok;
      } else {
        r.status = ServeStatus::infeasible;
      }
    } else if (rs->feasible) {
      const Slot& s = slots[slot_of.at(rs)];
      r.plan = rs->choice;
      r.cache_hit = rs->cache_hit;
      rs->cache_hit ? ++hits : ++misses;
      if (s.ok) {
        r.simulated_seconds = s.simulated;
        r.batch_size = static_cast<std::uint32_t>(s.items.size());
      } else {
        r.status = ServeStatus::infeasible;
      }
    } else {
      r.status = ServeStatus::infeasible;
    }
    if (r.status == ServeStatus::infeasible) ++infeasible;
    r.service_seconds = seconds_since(items[i].admitted_ns, now_ns());
    out.push_back(r);
  }

  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.cycles += 1;
    stats_.completed += items.size();
    stats_.infeasible += infeasible;
    stats_.kernels_served += kernels_ok;
    stats_.cache_hits += hits;
    stats_.cache_misses += misses;
    for (const Slot& s : slots) {
      if (!s.executed) continue;  // batches are *engine executions*
      stats_.batches += 1;
      stats_.coalesced_max = std::max<std::uint64_t>(stats_.coalesced_max, s.items.size());
      occupancy_.observe(static_cast<double>(s.items.size()));
    }
    const ProgramCacheStats& ps = programs_.stats();
    stats_.program_hits = ps.hits;
    stats_.program_misses = ps.misses;
    stats_.program_evictions = ps.evictions;
    stats_.program_bytes = ps.bytes;
  }
  {
    const std::lock_guard<std::mutex> lock(resp_mu_);
    done_.insert(done_.end(), std::make_move_iterator(out.begin()),
                 std::make_move_iterator(out.end()));
    responses_total_ += items.size();
  }
  resp_cv_.notify_all();
}

void Server::enqueue_tunes(std::vector<TuneJob> jobs) {
  if (jobs.empty()) return;
  std::size_t queued = 0;
  {
    const std::lock_guard<std::mutex> lock(tune_mu_);
    if (!tune_closed_) {
      for (TuneJob& job : jobs) {
        // One tune per key, ever: queued, in flight, completed awaiting
        // publish, or failed.  A published entry leaves the set — if the
        // cache later evicts it, the next cold miss retunes correctly.
        if (!tune_keys_.insert(job.key.hash).second) continue;
        tune_queue_.push_back(std::move(job));
        ++queued;
      }
    }
  }
  if (queued > 0) {
    tune_cv_.notify_all();
    const std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.tunes_enqueued += queued;
  }
}

void Server::tuner_main() {
  for (;;) {
    TuneJob job;
    {
      std::unique_lock<std::mutex> lock(tune_mu_);
      tune_cv_.wait(lock, [&] { return !tune_queue_.empty() || tune_closed_; });
      if (tune_queue_.empty()) {
        tune_idle_.notify_all();
        return;
      }
      job = std::move(tune_queue_.front());
      tune_queue_.pop_front();
      tune_busy_ = true;
    }

    bool ok = false;
    tune::TunedPlan plan;
    try {
      tune::TuneOptions topt;
      topt.jobs = options_.tune_jobs;
      topt.space = options_.space;
      topt.faults = job.faults.empty() ? nullptr : &job.faults;
      plan = tune::Tuner(job.machine, topt).tune(job.before, job.after);
      ok = true;
    } catch (const std::exception&) {
      // Every candidate infeasible (or the pair is degenerate): the key
      // stays in tune_keys_ so the same lost cause is never retried.
    }

    {
      const std::lock_guard<std::mutex> lock(tune_mu_);
      if (ok)
        pending_publish_.push_back(PendingPublish{std::move(job.key), tune::cache_entry(plan)});
      // Record stats BEFORE dropping tune_busy_: a drainer that passes
      // the tune_idle_ barrier must observe this job's counters.
      {
        const std::lock_guard<std::mutex> slock(stats_mu_);
        if (ok) {
          stats_.tunes_completed += 1;
        } else {
          stats_.tunes_failed += 1;
        }
      }
      tune_busy_ = false;
      if (tune_queue_.empty()) tune_idle_.notify_all();
    }
  }
}

std::vector<Response> Server::drain() {
  // 1. Every admitted request has its response written.  The admitted
  //    count is read from the queue (incremented under the queue lock
  //    before the item is visible), so a response can never precede its
  //    admission in this accounting.
  {
    std::unique_lock<std::mutex> lock(resp_mu_);
    resp_cv_.wait(lock, [&] { return responses_total_ >= queue_.admitted_total(); });
  }
  // 2. Epoch tune barrier: every background tune whose cold miss was
  //    served this epoch has completed (their jobs were queued before
  //    the responses that triggered step 1).
  {
    std::unique_lock<std::mutex> lock(tune_mu_);
    tune_idle_.wait(lock,
                    [&] { return (tune_queue_.empty() && !tune_busy_) || tune_closed_; });
  }
  // 3. Publish tuned plans in completion order, reset the resolution
  //    memo, and hand back this epoch's responses.  cycle_mu_ keeps a
  //    concurrently-starting cycle strictly before or strictly after
  //    the epoch boundary.
  std::vector<Response> out;
  std::uint64_t published = 0;
  {
    const std::lock_guard<std::mutex> cycle_lock(cycle_mu_);
    {
      const std::lock_guard<std::mutex> lock(tune_mu_);
      for (PendingPublish& p : pending_publish_) {
        cache_->insert(p.key, std::move(p.entry));
        tune_keys_.erase(p.key.hash);
        ++published;
      }
      pending_publish_.clear();
    }
    resolver_.new_epoch();
    {
      const std::lock_guard<std::mutex> lock(resp_mu_);
      out = std::move(done_);
      done_.clear();
    }
  }
  if (published > 0) {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.tunes_published += published;
  }
  std::sort(out.begin(), out.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });
  return out;
}

void Server::stop() {
  if (stopped_.exchange(true)) {
    // A concurrent or repeated stop still waits for the threads.
    if (dispatcher_.joinable()) dispatcher_.join();
    if (tuner_.joinable()) tuner_.join();
    return;
  }
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
  {
    const std::lock_guard<std::mutex> lock(tune_mu_);
    tune_closed_ = true;
    tune_queue_.clear();  // pending tunes are advisory; drop them
  }
  tune_cv_.notify_all();
  if (tuner_.joinable()) tuner_.join();
}

ServerStats Server::stats() const {
  ServerStats s;
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  s.queue_depth = queue_.size();
  s.queue_peak = queue_.peak_depth();
  return s;
}

obs::MetricsReport Server::metrics() const {
  const ServerStats s = stats();
  obs::MetricsRegistry reg;
  reg.counter("serve/submitted") = static_cast<double>(s.submitted);
  reg.counter("serve/admitted") = static_cast<double>(s.admitted);
  reg.counter("serve/rejected_full") = static_cast<double>(s.rejected_full);
  reg.counter("serve/rejected_share") = static_cast<double>(s.rejected_share);
  reg.counter("serve/rejected_stopped") = static_cast<double>(s.rejected_stopped);
  reg.counter("serve/rejected_bad") = static_cast<double>(s.rejected_bad);
  reg.counter("serve/completed") = static_cast<double>(s.completed);
  reg.counter("serve/infeasible") = static_cast<double>(s.infeasible);
  reg.counter("serve/kernels_served") = static_cast<double>(s.kernels_served);
  reg.counter("serve/queue_depth") = static_cast<double>(s.queue_depth);
  reg.counter("serve/queue_peak") = static_cast<double>(s.queue_peak);
  reg.counter("serve/queue_capacity") = static_cast<double>(s.queue_capacity);
  reg.counter("serve/cycles") = static_cast<double>(s.cycles);
  reg.counter("serve/batches") = static_cast<double>(s.batches);
  reg.counter("serve/batch_occupancy_max") = static_cast<double>(s.coalesced_max);
  reg.counter("serve/cache_hits") = static_cast<double>(s.cache_hits);
  reg.counter("serve/cache_misses") = static_cast<double>(s.cache_misses);
  reg.counter("serve/cache_hit_ratio", "%") = 100.0 * s.hit_ratio();
  reg.counter("serve/tunes_enqueued") = static_cast<double>(s.tunes_enqueued);
  reg.counter("serve/tunes_completed") = static_cast<double>(s.tunes_completed);
  reg.counter("serve/tunes_published") = static_cast<double>(s.tunes_published);
  reg.counter("serve/tunes_failed") = static_cast<double>(s.tunes_failed);
  reg.counter("serve/program_hits") = static_cast<double>(s.program_hits);
  reg.counter("serve/program_misses") = static_cast<double>(s.program_misses);
  reg.counter("serve/program_evictions") = static_cast<double>(s.program_evictions);
  reg.counter("serve/program_bytes", "bytes") = static_cast<double>(s.program_bytes);
  reg.counter("serve/program_hit_ratio", "%") = 100.0 * s.program_hit_ratio();
  obs::MetricsReport report = reg.snapshot();
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    report.histograms.push_back(occupancy_.data());
  }
  return report;
}

}  // namespace nct::serve
