#pragma once
// plum-bench workloads, inputs and the per-op correctness fingerprint.
//
// A workload fixes P, the box mesh, the solver steps per cycle and the
// adaption settings; the --seed argument picks FrameworkOptions::seed and
// the blast centre. Every op of a workload starts from the same state, so
// every op must reproduce the same fingerprint.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dist_framework.hpp"
#include "solver/init_conditions.hpp"

namespace plumbench {

using plum::Index;
using plum::Rank;

struct Workload {
  std::string name;
  Rank nranks = 8;
  int boxn = 16;  ///< box cells per axis (6 * boxn^3 tets)
  int solver_steps = 2;
  double refine_fraction = 0.05;
  double imbalance_trigger = 1.05;
  /// Timed cycles per framework, after one untimed cycle (the warm-up, or
  /// the adaption that creates refinement trees). 1 makes every op a fresh
  /// framework.
  int lifetime = 1;
};

/// The named workloads, or nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// Everything a seed decides.
struct Inputs {
  std::uint64_t seed = 1;
  plum::solver::BlastSpec blast;
};

Inputs make_inputs(std::uint64_t seed);

plum::core::FrameworkOptions framework_options(const Workload& w,
                                               const Inputs& in, int threads);

/// Deterministic summary of one timed cycle: what it produced, moved and
/// decided, the traffic it sent and the state it left behind.
struct Fingerprint {
  Index elements_after = 0;
  std::int64_t elements_migrated = 0;
  bool evaluated = false;
  bool accepted = false;
  std::int64_t msgs = 0;   ///< ledger delta over the cycle
  std::int64_t bytes = 0;  ///< ledger delta over the cycle
  std::uint64_t part_hash = 0;   ///< hash of root_partition()
  std::uint64_t state_hash = 0;  ///< hash of every rank's solution bits

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  /// Equal apart from the solution: the check between different cycles of
  /// one framework, whose solutions keep evolving.
  [[nodiscard]] bool same_structure(const Fingerprint& o) const;
  [[nodiscard]] std::string str() const;
};

/// Ledger totals over supersteps [from, end).
struct CommDelta {
  std::int64_t supersteps = 0;
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
};
CommDelta ledger_since(const plum::rt::Ledger& ledger, std::size_t from);

std::uint64_t hash_partition(const std::vector<Rank>& part);
std::uint64_t hash_states(const plum::pmesh::ParallelEulerSolver& solver,
                          Rank nranks);

}  // namespace plumbench
