#include "workload.hpp"

#include <sstream>

#include "util/rng.hpp"

namespace plumbench {

using namespace plum;

namespace {

// solve_p8: fixed mesh and partition, Nadapt RK2 steps per cycle and no
// refinement, so the gate never fires. adapt_p16: the paper's Real_1
// adaption (repartition, reassign, migrate, refine). weak_p128: the same
// adaption at ~47 elements per rank.
const std::vector<Workload> kWorkloads = {
    {.name = "solve_p8",
     .nranks = 8,
     .boxn = 16,
     .solver_steps = sim::MachineParams{}.solver_iters_per_adaption,
     .refine_fraction = 0,
     .imbalance_trigger = core::FrameworkOptions{}.imbalance_trigger,
     .lifetime = 10},
    {.name = "adapt_p16", .nranks = 16, .boxn = 16},
    {.name = "weak_p128", .nranks = 128, .boxn = 10},
};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  // The blast sits within +-0.03 of the box centre, so seeds vary the
  // inputs without changing how much work a cycle does.
  Rng rng(seed);
  in.blast.center = {0.5 + 0.06 * (rng.uniform() - 0.5),
                     0.5 + 0.06 * (rng.uniform() - 0.5),
                     0.5 + 0.06 * (rng.uniform() - 0.5)};
  in.blast.radius = 0.2;
  return in;
}

core::FrameworkOptions framework_options(const Workload& w, const Inputs& in,
                                         int threads) {
  core::FrameworkOptions opt;
  opt.nranks = w.nranks;
  opt.refine_fraction = w.refine_fraction;
  opt.imbalance_trigger = w.imbalance_trigger;
  opt.solver_steps_per_cycle = w.solver_steps;
  opt.mapper = core::MapperKind::kHeuristicGreedy;
  opt.metric = sim::CostMetric::kTotalV;
  opt.seed = in.seed;
  opt.threads = threads;
  opt.scope_name = "plum_bench_" + w.name;
  return opt;
}

bool Fingerprint::same_structure(const Fingerprint& o) const {
  Fingerprint a = *this;
  a.state_hash = o.state_hash;
  return a == o;
}

std::string Fingerprint::str() const {
  std::ostringstream os;
  os << "elements=" << elements_after << " migrated=" << elements_migrated
     << " gate=" << (evaluated ? (accepted ? "accepted" : "rejected") : "off")
     << " msgs=" << msgs << " bytes=" << bytes << " part=" << std::hex
     << part_hash << " state=" << state_hash;
  return os.str();
}

CommDelta ledger_since(const rt::Ledger& ledger, std::size_t from) {
  CommDelta d;
  for (std::size_t s = from; s < ledger.steps.size(); ++s) {
    ++d.supersteps;
    for (const auto& c : ledger.steps[s]) {
      d.msgs += c.msgs_sent;
      d.bytes += c.bytes_sent;
    }
  }
  return d;
}

std::uint64_t hash_partition(const std::vector<Rank>& part) {
  return fnv(kFnvOffset, part.data(), part.size() * sizeof(Rank));
}

std::uint64_t hash_states(const pmesh::ParallelEulerSolver& solver,
                          Rank nranks) {
  std::uint64_t h = kFnvOffset;
  for (Rank r = 0; r < nranks; ++r) {
    const auto& u = solver.solution(r);
    h = fnv(h, u.data(), u.size() * sizeof(solver::State));
  }
  return h;
}

}  // namespace plumbench
