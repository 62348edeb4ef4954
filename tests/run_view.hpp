#pragma once
// What the determinism tests compare between two runs of one DistFramework
// workload (engines, thread counts, transports): the wall-free run entry
// (obs::run_entry, which also builds BENCH_<bench>.json's runs), the full
// engine ledger, and the plum-mem live scratch bytes row by row.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dist_framework.hpp"
#include "obs/run_entry.hpp"

namespace plum::test {

struct RunView {
  std::string entry;  ///< wall-free run entry, serialized
  rt::Ledger ledger;
  std::vector<std::int64_t> live_bytes;  ///< per row (ranks, then host)
};

inline RunView run_view(core::DistFramework& fw) {
  RunView v;
  v.entry = obs::run_entry(fw.trace(), fw.metrics(), &fw.engine().ledger(),
                           /*wall=*/false)
                .dump();
  v.ledger = fw.engine().ledger();
  const obs::MemoryTracker& mem = fw.memory();
  for (int row = 0; row <= static_cast<int>(mem.nranks()); ++row) {
    v.live_bytes.push_back(mem.live_bytes(row));
  }
  return v;
}

}  // namespace plum::test
