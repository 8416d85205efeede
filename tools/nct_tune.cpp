// nct_tune: autotune transpose plans, inspect the persistent plan cache,
// and dump the paper's decision tables.
//
// Usage:
//   nct_tune tune [--machine ipsc|cm|nport] [--n N] [--lg L] [--layout 1d|2d]
//                 [--jobs J] [--cache FILE] [--fail-link NODE:DIM]...
//       search the plan space for one problem and print the finalists
//       (with --cache: load the store first, save it back after)
//   nct_tune crossover [--machine ipsc|cm] [--lg L] [--jobs J]
//       Fig 19 decision table: tuned 1D-vs-2D winner per cube size,
//       against the cost model's predicted crossover
//   nct_tune crossover --topology [--machine ipsc|cm] [--lg L] [--jobs J]
//       cross-topology decision table: tuned hypercube transpose vs the
//       BFS-routed planner on torus / mesh / Swapped Dragonfly at
//       matched node counts
//   nct_tune buffer [--machine ipsc] [--n N] [--lg L] [--jobs J]
//       Fig 11/12 table: buffer-threshold sensitivity and the tuned
//       B_copy against the closed-form tau/t_copy optimum
//   nct_tune kernel [--kernel hsmm|boolmm] [--machine ipsc|cm|nport] [--n N]
//                   [--matrix M] [--bundle K] [--jobs J] [--cache FILE]
//                   [--fail-link NODE:DIM]...
//       tune a kernel pipeline's per-stage composition and print the
//       stage table (naive vs tuned plan per comm stage), then execute
//       the tuned composition end-to-end with placement verification
//   nct_tune cache list FILE      print every entry of a store file
//   nct_tune cache check FILE     strict integrity check (nonzero exit +
//                                 diagnostic on version mismatch,
//                                 truncation, trailing bytes)
//   nct_tune cache evict FILE KEYHASH
//       drop one entry (KEYHASH as printed by `cache list`, hex)
//
// Exit status: 0 ok, 1 operation failed (incl. corrupt store), 2 usage
// (incl. a malformed or out-of-range number, or an n/lg/layout the
// figure layouts cannot build).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/cost_model.hpp"
#include "kernels/boolmm.hpp"
#include "kernels/matmul.hpp"
#include "kernels/tune.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "sim/model.hpp"
#include "topology/routed.hpp"
#include "topology/topology.hpp"
#include "tune/cache.hpp"
#include "tune/layouts.hpp"
#include "tune/tuner.hpp"
#include "cli_number.hpp"

namespace {

using namespace nct;

// Flag ranges.  A job is a host thread; up to 2^20 nodes and 2^24
// matrix elements keep a search's plans within a few GiB, and kernel
// matrices of up to 4096 rows (default: 4 rows per node, so n <= 10)
// within a few hundred MiB.
constexpr int kMaxN = 20;
constexpr int kMaxLg = 24;
constexpr int kMaxJobs = 256;
constexpr int kMaxKernelN = 10;
constexpr cube::word kMaxMatrix = 4096;

int usage() {
  std::fprintf(stderr,
               "usage: nct_tune tune [--machine ipsc|cm|nport] [--n N] [--lg L]\n"
               "                     [--layout 1d|2d] [--jobs J] [--cache FILE]\n"
               "                     [--fail-link NODE:DIM]...\n"
               "       nct_tune crossover [--topology] [--machine ipsc|cm] [--lg L]\n"
               "                          [--jobs J]\n"
               "       nct_tune buffer [--machine ipsc|cm] [--n N] [--lg L] [--jobs J]\n"
               "       nct_tune kernel [--kernel hsmm|boolmm] [--machine ipsc|cm|nport]\n"
               "                       [--n N] [--matrix M] [--bundle K] [--jobs J]\n"
               "                       [--cache FILE] [--fail-link NODE:DIM]...\n"
               "       nct_tune cache list|check FILE\n"
               "       nct_tune cache evict FILE KEYHASH\n");
  return 2;
}

struct Args {
  std::string machine = "ipsc";
  int n = 4;
  int lg = 14;
  std::string layout = "2d";
  int jobs = 0;
  std::string cache_path;
  fault::FaultSpec faults;
  bool have_faults = false;
  bool topology = false;
  std::string kernel = "hsmm";
  cube::word matrix = 0;  ///< 0 = 4 rows per node.
  cube::word bundle = 0;  ///< hsmm shift bundle (0 = ceil-sqrt).
};

bool parse_common(int argc, char** argv, int start, Args& a) {
  for (int i = start; i < argc; ++i) {
    const std::string s = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "nct_tune: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (s == "--machine") {
      const char* v = need_value("--machine");
      if (!v) return false;
      a.machine = v;
    } else if (s == "--n") {
      const char* v = need_value("--n");
      if (!v || !cli::parse_number("nct_tune", "--n", v, 0, kMaxN, a.n)) return false;
    } else if (s == "--lg") {
      const char* v = need_value("--lg");
      if (!v || !cli::parse_number("nct_tune", "--lg", v, 0, kMaxLg, a.lg)) return false;
    } else if (s == "--layout") {
      const char* v = need_value("--layout");
      if (!v) return false;
      a.layout = v;
    } else if (s == "--jobs") {
      const char* v = need_value("--jobs");
      if (!v || !cli::parse_number("nct_tune", "--jobs", v, 0, kMaxJobs, a.jobs)) return false;
    } else if (s == "--cache") {
      const char* v = need_value("--cache");
      if (!v) return false;
      a.cache_path = v;
    } else if (s == "--fail-link") {
      const char* v = need_value("--fail-link");
      if (!v) return false;
      const char* colon = std::strchr(v, ':');
      if (colon == nullptr) {
        std::fprintf(stderr, "nct_tune: --fail-link expects NODE:DIM, got '%s'\n", v);
        return false;
      }
      // The machine's FaultModel rejects a node or dimension the cube
      // does not have; here both only need to be numbers.
      const std::string_view node_text(v, static_cast<std::size_t>(colon - v));
      cube::word node = 0;
      int dim = 0;
      if (!cli::parse_number("nct_tune", "--fail-link NODE", node_text, cube::word{0},
                             ~cube::word{0}, node) ||
          !cli::parse_number("nct_tune", "--fail-link DIM", colon + 1, 0, kMaxN - 1, dim))
        return false;
      a.faults.fail_link(node, dim);
      a.have_faults = true;
    } else if (s == "--topology") {
      a.topology = true;
    } else if (s == "--kernel") {
      const char* v = need_value("--kernel");
      if (!v) return false;
      a.kernel = v;
    } else if (s == "--matrix") {
      const char* v = need_value("--matrix");
      if (!v || !cli::parse_number("nct_tune", "--matrix", v, cube::word{0}, kMaxMatrix, a.matrix))
        return false;
    } else if (s == "--bundle") {
      const char* v = need_value("--bundle");
      if (!v || !cli::parse_number("nct_tune", "--bundle", v, cube::word{0}, kMaxMatrix, a.bundle))
        return false;
    } else {
      std::fprintf(stderr, "nct_tune: unknown option '%s'\n", s.c_str());
      return false;
    }
  }
  return true;
}

bool make_machine(const Args& a, sim::MachineParams& m) {
  if (a.machine == "ipsc") {
    m = sim::MachineParams::ipsc(a.n);
  } else if (a.machine == "cm") {
    m = sim::MachineParams::cm(a.n);
  } else if (a.machine == "nport") {
    m = sim::MachineParams::nport(a.n);
  } else {
    std::fprintf(stderr, "nct_tune: unknown machine '%s'\n", a.machine.c_str());
    return false;
  }
  return true;
}

/// Whether tune/layouts.hpp can build `layout` ("1d", "2d" or
/// "1d-cyclic") for 2^lg elements on an n-cube; prints why not.  1d
/// needs n column bits on both sides of the transpose, 2d an n/2 x n/2
/// processor grid, 1d-cyclic (the buffer table's layout) n <= lg.
bool layout_buildable(const std::string& layout, int n, int lg) {
  const char* need = nullptr;
  if (layout == "1d") {
    if (2 * n > lg) need = "2n <= lg";
  } else if (layout == "2d") {
    if (n % 2 != 0) need = "an even n";
    else if (n > lg) need = "n <= lg";
  } else if (n > lg) {
    need = "n <= lg";
  }
  if (need != nullptr)
    std::fprintf(stderr, "nct_tune: the %s layout with n=%d, lg=%d needs %s\n", layout.c_str(),
                 n, lg, need);
  return need == nullptr;
}

int cmd_tune(const Args& a) {
  sim::MachineParams m;
  if (!make_machine(a, m)) return 2;
  if (a.layout != "1d" && a.layout != "2d") {
    std::fprintf(stderr, "nct_tune: unknown layout '%s'\n", a.layout.c_str());
    return 2;
  }
  if (!layout_buildable(a.layout, a.n, a.lg)) return 2;
  const tune::SpecPair pair =
      a.layout == "2d" ? tune::fig_layout_2d(a.lg, a.n) : tune::fig_layout_1d(a.lg, a.n);

  tune::PlanCache cache;
  if (!a.cache_path.empty()) {
    const std::size_t loaded = cache.load_file(a.cache_path);
    std::printf("cache: %zu entr%s loaded from %s\n", loaded, loaded == 1 ? "y" : "ies",
                a.cache_path.c_str());
  }
  tune::TuneOptions opt;
  opt.jobs = a.jobs;
  if (a.have_faults) opt.faults = &a.faults;
  if (!a.cache_path.empty()) opt.cache = &cache;

  tune::TunedPlan plan;
  try {
    plan = tune::tune_transpose(pair.first, pair.second, m, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nct_tune: %s\n", e.what());
    return 1;
  }

  std::printf("machine:   %s (n=%d), 2^%d elements, %s layout\n", m.name.c_str(), m.n, a.lg,
              a.layout.c_str());
  std::printf("decision:  %s\n", plan.algorithm.c_str());
  std::printf("measured:  %.6f s   (model prior: %.6f s)\n", plan.measured_seconds,
              plan.predicted_seconds);
  std::printf("source:    %s (%zu engine measurement%s)\n",
              plan.from_cache ? "cache hit" : "searched", plan.programs_measured,
              plan.programs_measured == 1 ? "" : "s");
  if (!plan.measurements.empty()) {
    std::printf("\n%-24s %-14s %-14s\n", "candidate", "measured_ms", "predicted_ms");
    for (const tune::Measurement& mm : plan.measurements) {
      std::printf("%-24s %-14.3f %-14.3f%s\n", mm.candidate.describe().c_str(),
                  mm.measured_seconds * 1e3, mm.candidate.predicted_seconds * 1e3,
                  mm.feasible ? "" : "  (infeasible)");
    }
  }

  if (!a.cache_path.empty()) {
    const tune::CacheStats st = cache.stats();
    std::printf("cache stats: %" PRIu64 " hit%s, %" PRIu64 " miss%s, %" PRIu64
                " eviction%s, %" PRIu64 " loaded\n",
                st.hits, st.hits == 1 ? "" : "s", st.misses, st.misses == 1 ? "" : "es",
                st.evictions, st.evictions == 1 ? "" : "s", st.loads);
    if (!cache.save_file(a.cache_path)) {
      std::fprintf(stderr, "nct_tune: cannot write %s\n", a.cache_path.c_str());
      return 1;
    }
  }
  return 0;
}

// Timing-only engine run of a BFS-routed transpose on `id`, on a machine
// with the same wire/copy constants as the tuned cube machine.
double routed_transpose_ms(const Args& a, const topo::TopologyId& id, cube::word rows,
                           cube::word cols, cube::word elems, int* diameter) {
  const auto t = topo::make_topology(id, 0);
  sim::MachineParams base;
  Args ba = a;
  ba.n = 0;
  if (!make_machine(ba, base)) throw std::runtime_error("bad machine");
  const sim::MachineParams m = sim::MachineParams::on_topology(id, base);
  const sim::Program program = topo::plan_routed_transpose(*t, rows, cols, elems);
  const sim::CompiledProgram cp = sim::compile(program, m);
  const sim::Engine engine(m);
  if (diameter != nullptr) *diameter = t->diameter();
  return engine.run_timing(cp).total_time * 1e3;
}

int cmd_crossover_topology(const Args& a) {
  // Matched-node-count rows: every topology in a block moves the same
  // 2^lg elements across the same number of nodes, so the table isolates
  // the wiring (and the routed planner's store-and-forward fallback).
  struct Row {
    const char* label;
    topo::TopologyId id;
    cube::word rows, cols;
  };
  struct Block {
    int n;  // matched hypercube dimension (nodes = 2^n)
    std::vector<Row> rows;
  };
  const std::vector<Block> blocks = {
      {4,
       {{"torus{4,4}", topo::torus_id({4, 4}), 4, 4},
        {"mesh{4,4}", topo::mesh_id({4, 4}), 4, 4},
        {"dragonfly(4,2)", topo::dragonfly_id(4, 2), 4, 4}}},
      {6,
       {{"torus{4,4,4}", topo::torus_id({4, 4, 4}), 8, 8},
        {"mesh{8,8}", topo::mesh_id({8, 8}), 8, 8},
        {"dragonfly(4,4)", topo::dragonfly_id(4, 4), 8, 8}}},
  };

  for (const Block& blk : blocks)
    if (!layout_buildable("2d", blk.n, a.lg)) return 2;
  std::printf(
      "cross-topology decision table: tuned hypercube vs BFS-routed transpose,\n"
      "%s machine constants, 2^%d elements\n",
      a.machine.c_str(), a.lg);
  std::printf("%-16s %-7s %-5s %-12s %-12s %-8s\n", "topology", "nodes", "diam",
              "routed_ms", "cube_ms", "winner");
  for (const Block& blk : blocks) {
    Args base = a;
    base.n = blk.n;
    sim::MachineParams m;
    if (!make_machine(base, m)) return 2;
    const auto pair = tune::fig_layout_2d(a.lg, blk.n);
    tune::TuneOptions opt;
    opt.jobs = a.jobs;
    tune::TunedPlan cube_plan;
    try {
      cube_plan = tune::tune_transpose(pair.first, pair.second, m, opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nct_tune: %s\n", e.what());
      return 1;
    }
    const double cube_ms = cube_plan.measured_seconds * 1e3;
    const cube::word nodes = cube::word{1} << blk.n;
    const cube::word elems = (cube::word{1} << a.lg) / nodes;
    std::printf("%-16s %-7llu %-5s %-12s %-12.3f %-8s  (%s)\n", "hypercube",
                static_cast<unsigned long long>(nodes), std::to_string(blk.n).c_str(), "-",
                cube_ms, "-", cube_plan.algorithm.c_str());
    for (const Row& r : blk.rows) {
      int diam = 0;
      double ms = 0.0;
      try {
        ms = routed_transpose_ms(a, r.id, r.rows, r.cols, elems, &diam);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "nct_tune: %s: %s\n", r.label, e.what());
        return 1;
      }
      std::printf("%-16s %-7llu %-5d %-12.3f %-12.3f %-8s\n", r.label,
                  static_cast<unsigned long long>(nodes), diam, ms, cube_ms,
                  ms < cube_ms ? "routed" : "cube");
    }
  }
  return 0;
}

int cmd_crossover(const Args& a) {
  if (a.topology) return cmd_crossover_topology(a);
  constexpr int kSizes[] = {2, 4, 6};
  for (const int n : kSizes)
    if (!layout_buildable("1d", n, a.lg) || !layout_buildable("2d", n, a.lg)) return 2;
  Args base = a;
  std::printf("Fig 19 decision table: tuned 1D vs 2D winner, %s machine, 2^%d elements\n",
              a.machine.c_str(), a.lg);
  std::printf("%-4s %-12s %-12s %-10s %-10s %-8s\n", "n", "1D_ms", "2D_ms", "winner",
              "model", "agree");
  int rc = 0;
  for (const int n : kSizes) {
    base.n = n;
    sim::MachineParams m;
    if (!make_machine(base, m)) return 2;
    tune::TuneOptions opt;
    opt.jobs = a.jobs;
    const auto p1 = tune::fig_layout_1d(a.lg, n);
    const auto p2 = tune::fig_layout_2d(a.lg, n);
    tune::TunedPlan t1, t2;
    try {
      t1 = tune::tune_transpose(p1.first, p1.second, m, opt);
      t2 = tune::tune_transpose(p2.first, p2.second, m, opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nct_tune: %s\n", e.what());
      return 1;
    }
    const double pq = static_cast<double>(cube::word{1} << a.lg);
    const double model_1d = analysis::transpose_1d_buffered_time(
        m, pq, analysis::optimal_copy_threshold(m));
    const double model_2d = m.port == sim::PortModel::n_port
                                ? analysis::mpt_min_time(m, pq)
                                : analysis::transpose_2d_stepwise_time(m, pq);
    const bool tuned_2d = t2.measured_seconds < t1.measured_seconds;
    const bool model_says_2d = model_2d < model_1d;
    if (tuned_2d != model_says_2d) rc = 1;
    std::printf("%-4d %-12.3f %-12.3f %-10s %-10s %-8s\n", n, t1.measured_seconds * 1e3,
                t2.measured_seconds * 1e3, tuned_2d ? "2D" : "1D",
                model_says_2d ? "2D" : "1D", tuned_2d == model_says_2d ? "yes" : "NO");
  }
  return rc;
}

int cmd_buffer(const Args& a) {
  sim::MachineParams m;
  if (!make_machine(a, m)) return 2;
  if (!layout_buildable("1d-cyclic", a.n, a.lg)) return 2;
  const auto pair = tune::fig_layout_1d_cyclic(a.lg, a.n);
  tune::TuneOptions opt;
  opt.jobs = a.jobs;
  opt.space.families = {tune::Family::exchange};
  tune::TunedPlan plan;
  try {
    plan = tune::tune_transpose(pair.first, pair.second, m, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nct_tune: %s\n", e.what());
    return 1;
  }
  std::printf("Fig 11/12: buffer-threshold sensitivity, %s n=%d, 2^%d elements\n",
              m.name.c_str(), a.n, a.lg);
  std::printf("%-24s %-14s\n", "candidate", "measured_ms");
  for (const tune::Measurement& mm : plan.measurements)
    std::printf("%-24s %-14.3f\n", mm.candidate.describe().c_str(),
                mm.measured_seconds * 1e3);
  std::printf("tuned:    %s\n", plan.choice.describe().c_str());
  std::printf("analytic: B_copy = tau/t_copy = %.0f elements\n",
              analysis::optimal_copy_threshold(m));
  return 0;
}

int cmd_kernel(const Args& a) {
  sim::MachineParams m;
  if (!make_machine(a, m)) return 2;
  if (a.n > kMaxKernelN) {
    std::fprintf(stderr, "nct_tune: kernel needs --n <= %d, got %d\n", kMaxKernelN, a.n);
    return 2;
  }
  const cube::word nodes = m.nodes();

  std::unique_ptr<kernels::HsmmKernel> hsmm;
  std::unique_ptr<kernels::BoolmmKernel> boolmm;
  const kernels::Pipeline* pipeline = nullptr;
  sim::Memory entry;
  try {
    if (a.kernel == "hsmm") {
      kernels::HsmmOptions opt;
      opt.nm = a.matrix != 0 ? a.matrix : nodes * 4;
      opt.bundle = a.bundle;
      hsmm = std::make_unique<kernels::HsmmKernel>(m, opt);
      pipeline = &hsmm->pipeline();
      entry = hsmm->initial_memory();
    } else if (a.kernel == "boolmm") {
      kernels::BoolmmOptions opt;
      opt.nb = a.matrix != 0 ? a.matrix : std::max<cube::word>(64, nodes) * 64 / 64 * 64;
      while (opt.nb % nodes != 0 || opt.nb % 64 != 0) opt.nb += 64;
      boolmm = std::make_unique<kernels::BoolmmKernel>(m, opt);
      pipeline = &boolmm->pipeline();
      entry = boolmm->initial_memory();
    } else {
      std::fprintf(stderr, "nct_tune: unknown kernel '%s'\n", a.kernel.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nct_tune: %s\n", e.what());
    return 2;
  }

  tune::PlanCache cache;
  if (!a.cache_path.empty()) {
    const std::size_t loaded = cache.load_file(a.cache_path);
    std::printf("cache: %zu entr%s loaded from %s\n", loaded, loaded == 1 ? "y" : "ies",
                a.cache_path.c_str());
  }
  kernels::KernelTuneOptions topt;
  topt.jobs = a.jobs;
  if (a.have_faults) topt.faults = &a.faults;
  if (!a.cache_path.empty()) topt.cache = &cache;

  kernels::TunedComposition tuned;
  try {
    tuned = kernels::tune_pipeline(*pipeline, entry, topt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nct_tune: %s\n", e.what());
    return 1;
  }

  std::printf("kernel:    %s on %s\n", pipeline->signature().c_str(), m.name.c_str());
  std::printf("%-22s %-12s %-26s %-12s %-9s %s\n", "stage", "naive_ms", "tuned_plan",
              "tuned_ms", "speedup", "source");
  for (const kernels::StageChoice& s : tuned.stages) {
    const double speedup =
        s.tuned_seconds > 0.0 ? s.naive_seconds / s.tuned_seconds : 1.0;
    std::printf("%-22s %-12.3f %-26s %-12.3f %-9.2f %s\n", s.name.c_str(),
                s.naive_seconds * 1e3, s.candidate.describe().c_str(),
                s.tuned_seconds * 1e3, speedup,
                s.from_cache ? "cache" : "measured");
  }
  const double total_speedup =
      tuned.tuned_seconds > 0.0 ? tuned.naive_seconds / tuned.tuned_seconds : 1.0;
  std::printf("%-22s %-12.3f %-26s %-12.3f %-9.2f\n", "total (comm)",
              tuned.naive_seconds * 1e3, "", tuned.tuned_seconds * 1e3, total_speedup);

  // Execute the tuned composition end-to-end: every stage's placement
  // contract is re-verified, and the product is checked against the
  // host-side reference.
  try {
    kernels::PipelineOptions popt;
    popt.path = kernels::ExecPath::timing;
    if (a.have_faults) popt.faults = &a.faults;
    popt.composition = tuned.composition;
    const kernels::PipelineResult run = pipeline->run(entry, popt);
    const bool values_ok = hsmm != nullptr ? hsmm->result() == hsmm->reference()
                                           : boolmm->result() == boolmm->reference();
    std::printf("executed:  %.6f s end-to-end, placement verified, product %s\n",
                run.seconds, values_ok ? "matches host reference" : "MISMATCH");
    if (!values_ok) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nct_tune: tuned run failed: %s\n", e.what());
    return 1;
  }

  if (!a.cache_path.empty() && !cache.save_file(a.cache_path)) {
    std::fprintf(stderr, "nct_tune: cannot write %s\n", a.cache_path.c_str());
    return 1;
  }
  return 0;
}

int cmd_cache(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string verb = argv[2];
  const std::string path = argv[3];
  if (verb == "list") {
    tune::StoreData data;
    try {
      data = tune::read_store_strict(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nct_tune: %s: %s\n", path.c_str(), e.what());
      return 1;
    }
    std::printf("store:   v%u, %zu entr%s\n", data.version, data.entries.size(),
                data.entries.size() == 1 ? "y" : "ies");
    for (const tune::CacheEntry& e : data.entries) {
      std::printf("  %016" PRIx64 "  %-24s measured %.6f s  (%s)\n",
                  tune::stable_hash(e.key), e.choice.describe().c_str(),
                  e.measured_seconds, e.algorithm.c_str());
    }
    // Tolerant-load stats over the same store: `loads` counts entries the
    // LRU actually merged, so a partially damaged store shows fewer loads
    // than the strict listing has entries.
    tune::PlanCache cache(data.entries.size() + 1);
    cache.load_file(path);
    const tune::CacheStats st = cache.stats();
    std::printf("stats:   %" PRIu64 " loaded, %" PRIu64 " eviction%s, %" PRIu64
                " hit%s / %" PRIu64 " miss%s this session\n",
                st.loads, st.evictions, st.evictions == 1 ? "" : "s", st.hits,
                st.hits == 1 ? "" : "s", st.misses, st.misses == 1 ? "" : "es");
    return 0;
  }
  if (verb == "check") {
    try {
      const tune::StoreData data = tune::read_store_strict(path);
      std::printf("ok: v%u, %zu entr%s\n", data.version, data.entries.size(),
                  data.entries.size() == 1 ? "y" : "ies");
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nct_tune: %s: %s\n", path.c_str(), e.what());
      return 1;
    }
  }
  if (verb == "evict") {
    if (argc < 5) return usage();
    std::uint64_t hash = 0;
    if (!cli::parse_number("nct_tune", "KEYHASH", argv[4], std::uint64_t{0}, ~std::uint64_t{0},
                           hash, 16))
      return 2;
    tune::PlanCache cache;
    if (cache.load_file(path) == 0) {
      std::fprintf(stderr, "nct_tune: %s: nothing loaded (missing or damaged store)\n",
                   path.c_str());
      return 1;
    }
    if (!cache.evict(hash)) {
      std::fprintf(stderr, "nct_tune: %s: no entry %016" PRIx64 "\n", path.c_str(), hash);
      return 1;
    }
    if (!cache.save_file(path)) {
      std::fprintf(stderr, "nct_tune: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("evicted %016" PRIx64 " (%zu entr%s left)\n", hash, cache.size(),
                cache.size() == 1 ? "y" : "ies");
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "cache") return cmd_cache(argc, argv);
  Args a;
  if (!parse_common(argc, argv, 2, a)) return 2;
  if (cmd == "tune") return cmd_tune(a);
  if (cmd == "crossover") return cmd_crossover(a);
  if (cmd == "buffer") return cmd_buffer(a);
  if (cmd == "kernel") return cmd_kernel(a);
  return usage();
}
