// Seeded randomness shared by the fuzz tests: the NCT_FUZZ_SEED override
// (so CI can pin or rotate a sweep's seed) and random all-transient fault
// specs on the n-cube.
#pragma once

#include <cstdlib>
#include <initializer_list>
#include <random>

#include "fault/fault.hpp"

namespace nct::fuzz {

/// NCT_FUZZ_SEED when set, else `fallback` (each sweep keeps its own).
inline unsigned fuzz_seed(unsigned fallback) {
  if (const char* s = std::getenv("NCT_FUZZ_SEED"))
    return static_cast<unsigned>(std::strtoul(s, nullptr, 10));
  return fallback;
}

/// What one entry of random_transient_spec faults.
enum class Outage { link, node, degrade };

/// A random all-transient fault spec on the n-cube: 1..max_entries
/// entries, each on a random directed link (or its source node) and of a
/// kind drawn uniformly from `kinds`, by position: a link or node outage
/// window starting in [0, horizon) and lasting horizon/100..horizon/4, or
/// a degrade factor in [1, 4).  Never permanent, so every program must
/// still complete with the right data.
inline fault::FaultSpec random_transient_spec(std::mt19937& rng, int n, double horizon,
                                              int max_entries,
                                              std::initializer_list<Outage> kinds) {
  std::uniform_int_distribution<cube::word> node(0, (cube::word{1} << n) - 1);
  std::uniform_int_distribution<int> dim(0, n - 1);
  std::uniform_real_distribution<double> at(0.0, horizon);
  std::uniform_real_distribution<double> len(horizon / 100.0, horizon / 4.0);
  std::uniform_real_distribution<double> factor(1.0, 4.0);
  std::uniform_int_distribution<int> kind(0, static_cast<int>(kinds.size()) - 1);
  const int entries = std::uniform_int_distribution<int>(1, max_entries)(rng);
  fault::FaultSpec spec;
  for (int i = 0; i < entries; ++i) {
    const cube::word x = node(rng);
    const int d = dim(rng);
    switch (kinds.begin()[kind(rng)]) {
      case Outage::link: {
        const double from = at(rng);
        spec.fail_link(x, d, {from, from + len(rng)});
        break;
      }
      case Outage::node: {
        const double from = at(rng);
        spec.fail_node(x, {from, from + len(rng)});
        break;
      }
      case Outage::degrade:
        spec.degrade_link(x, d, factor(rng));
        break;
    }
  }
  return spec;
}

}  // namespace nct::fuzz
