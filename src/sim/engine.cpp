#include "sim/engine.hpp"

#include <cstdio>
#include <utility>

#include "sim/compile.hpp"

namespace nct::sim {

Engine::Engine(MachineParams params, EngineOptions options)
    : params_(params), options_(options) {}

RunResult Engine::run(const Program& program, Memory initial) const {
  return run(compile(program, params_), std::move(initial));
}

VerifyResult verify_memory(const Memory& actual, const Memory& expected) {
  VerifyResult r;
  int mismatches = 0;
  char buf[128];
  // The message (and any formatting work) is built only once a mismatch
  // is found; the all-equal fast path just compares.
  if (actual.size() != expected.size()) {
    r.ok = false;
    r.message = "node count mismatch";
    return r;
  }
  for (std::size_t x = 0; x < actual.size(); ++x) {
    if (actual[x].size() != expected[x].size()) {
      r.ok = false;
      std::snprintf(buf, sizeof(buf), "node %zu: slot count mismatch; ", x);
      r.message += buf;
      continue;
    }
    for (std::size_t s = 0; s < actual[x].size(); ++s) {
      if (actual[x][s] != expected[x][s]) {
        r.ok = false;
        if (mismatches < 8) {
          const long long got = actual[x][s] == kEmptySlot
                                    ? -1
                                    : static_cast<long long>(actual[x][s]);
          const long long want = expected[x][s] == kEmptySlot
                                     ? -1
                                     : static_cast<long long>(expected[x][s]);
          std::snprintf(buf, sizeof(buf), "node %zu slot %zu: got %lld want %lld; ", x, s,
                        got, want);
          r.message += buf;
        }
        ++mismatches;
      }
    }
  }
  if (!r.ok) {
    std::snprintf(buf, sizeof(buf), "(%d slot mismatches)", mismatches);
    r.message += buf;
  }
  return r;
}

}  // namespace nct::sim
