// Pins every program the tuner builds over a grid of 2D transpose
// problems as one digest: each Space candidate built through
// Tuner::build, then each tune() winner's program, measured time and
// per-candidate measurements.  iPSC and CM machines, n in {4, 6, 8, 10},
// 2^12, 2^14 and 2^16 elements, on a healthy cube and under a four-link
// permanent fault set (which forces refills from the MPT path family
// and rerouted sends).  Any change to the planners' send order, slots
// or flags, or to the search's decision, moves the digest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>

#include "fault/fault.hpp"
#include "support/golden_digest.hpp"
#include "tune/layouts.hpp"
#include "tune/tuner.hpp"

namespace nct::tune {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void fold_candidate(std::uint64_t& h, const Candidate& c) {
  golden::fnv1a64(h, static_cast<std::uint64_t>(c.family));
  golden::fnv1a64(h, static_cast<std::uint64_t>(c.packet_elements));
  golden::fnv1a64(h, static_cast<std::uint64_t>(c.buffer_mode));
  golden::fnv1a64(h, static_cast<std::uint64_t>(c.b_copy_elements));
}

/// Digest of every candidate build and the tuned decision for one
/// problem.
std::uint64_t problem_digest(const sim::MachineParams& m, int lg,
                             const fault::FaultSpec* faults) {
  const SpecPair p = fig_layout_2d(lg, m.n);
  TuneOptions opt;
  opt.jobs = 2;
  opt.faults = faults;
  const Tuner tuner(m, opt);
  std::uint64_t h = golden::kFnvBasis;

  const Space space(p.first, p.second, m, opt.space);
  for (const Candidate& c : space.candidates()) {
    fold_candidate(h, c);
    try {
      golden::fnv1a64(h, tuner.build(p.first, p.second, c));
    } catch (const fault::FaultError&) {
      golden::fnv1a64(h, std::uint64_t{0xfa017fa017ULL});
    }
  }

  const TunedPlan plan = tuner.tune(p.first, p.second);
  fold_candidate(h, plan.choice);
  golden::fnv1a64(h, plan.program);
  golden::fnv1a64(h, bits(plan.measured_seconds));
  golden::fnv1a64(h, static_cast<std::uint64_t>(plan.measurements.size()));
  for (const Measurement& mm : plan.measurements) {
    fold_candidate(h, mm.candidate);
    golden::fnv1a64(h, bits(mm.measured_seconds));
    golden::fnv1a64(h, static_cast<std::uint64_t>(mm.feasible));
  }
  return h;
}

TEST(TunerBuildDigest, CandidateProgramsAndWinnersArePinned) {
  fault::FaultSpec faults;
  faults.fail_link(1, 0).fail_link(2, 1).fail_link(5, 2).fail_link(6, 3);

  std::uint64_t h = golden::kFnvBasis;
  for (const bool use_cm : {false, true}) {
    for (const int n : {4, 6, 8, 10}) {
      const sim::MachineParams m =
          use_cm ? sim::MachineParams::cm(n) : sim::MachineParams::ipsc(n);
      for (const int lg : {12, 14, 16}) {
        for (const fault::FaultSpec* f : {static_cast<const fault::FaultSpec*>(nullptr),
                                          static_cast<const fault::FaultSpec*>(&faults)}) {
          golden::fnv1a64(h, problem_digest(m, lg, f));
        }
      }
    }
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llxULL", static_cast<unsigned long long>(h));
  EXPECT_EQ(h, 0x2449e000f16c5047ULL) << "digest " << hex;
}

}  // namespace
}  // namespace nct::tune
