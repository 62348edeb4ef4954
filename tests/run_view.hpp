#pragma once
// What the determinism tests compare between two runs of one DistFramework
// workload (engines, thread counts, transports): the wall-free run entry
// (obs::run_entry, which also builds BENCH_<bench>.json's runs), the full
// engine ledger, and the plum-mem counters row by row.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dist_framework.hpp"
#include "obs/run_entry.hpp"

namespace plum::test {

struct RunView {
  std::string entry;  ///< wall-free run entry, serialized
  rt::Ledger ledger;
  /// MemoryTracker::stats(row, phase) for every row (ranks, then host),
  /// unphased bucket first, then each interned phase.
  std::vector<obs::MemStats> heap;
  std::vector<std::int64_t> live_bytes;  ///< per row
};

inline RunView run_view(core::DistFramework& fw) {
  RunView v;
  v.entry = obs::run_entry(fw.trace(), fw.metrics(), fw.memory(),
                           &fw.engine().ledger(), /*wall=*/false)
                .dump();
  v.ledger = fw.engine().ledger();
  const obs::MemoryTracker& mem = fw.memory();
  const auto phases = static_cast<std::int32_t>(mem.phase_names().size());
  for (int row = 0; row <= static_cast<int>(mem.nranks()); ++row) {
    for (std::int32_t p = -1; p < phases; ++p) {
      v.heap.push_back(mem.stats(row, p));
    }
    v.live_bytes.push_back(mem.live_bytes(row));
  }
  return v;
}

}  // namespace plum::test
