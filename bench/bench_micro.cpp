// Google-benchmark microbenchmarks for the performance-critical kernels:
// the three reassignment algorithms (dense similarity matrices — the regime
// where the paper's Table 2 ordering heuristic << optimal MWBG << optimal
// BMCM shows), HEM coarsening, k-way refinement, marking propagation and
// subdivision, the full multilevel partitioner, and the BSP engines.
//
// `--threads N` (consumed before google-benchmark's own flags) selects the
// engine for the BSP benchmarks: 1 = sequential reference Engine, 0 = one
// thread per core, N > 1 = ParallelEngine with N threads running ranks,
// the calling thread included. The modeled
// ledger counters reported by those benchmarks are engine-invariant — only
// wall-clock changes with N, which is how the speedup is measured:
//
//   ./bench_micro --threads 1 --benchmark_filter='Bsp|ParallelSolver'
//   ./bench_micro --threads 8 --benchmark_filter='Bsp|ParallelSolver'
//
// BM_SuperstepHandOff reports the engine's per-superstep overhead
// (`handoff_us`) at a fixed amount of rank work:
//
//   ./bench_micro --threads 4 --benchmark_filter=SuperstepHandOff

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "adapt/adaptor.hpp"
#include "common.hpp"
#include "json_report.hpp"
#include "obs/memory.hpp"
#include "obs/scope.hpp"
#include "graph/dual.hpp"
#include "mesh/box_mesh.hpp"
#include "partition/hem.hpp"
#include "partition/multilevel.hpp"
#include "partition/refine_kway.hpp"
#include "pmesh/dist_mesh.hpp"
#include "pmesh/parallel_solver.hpp"
#include "remap/mapping.hpp"
#include "runtime/engine.hpp"
#include "solver/init_conditions.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace plum;

int g_threads = 1;  // set by --threads in main()

remap::SimilarityMatrix dense_matrix(Rank P, std::uint64_t seed) {
  Rng rng(seed);
  remap::SimilarityMatrix S(P, P);
  for (Rank i = 0; i < P; ++i) {
    for (Rank j = 0; j < P; ++j) {
      S.at(i, j) = static_cast<Weight>(rng.below(2000));
    }
  }
  return S;
}

void BM_MapperGreedy(benchmark::State& state) {
  const auto S = dense_matrix(static_cast<Rank>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(remap::map_heuristic_greedy(S));
  }
}
BENCHMARK(BM_MapperGreedy)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_MapperOptimalMwbg(benchmark::State& state) {
  const auto S = dense_matrix(static_cast<Rank>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(remap::map_optimal_mwbg(S));
  }
}
BENCHMARK(BM_MapperOptimalMwbg)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_MapperOptimalBmcm(benchmark::State& state) {
  const auto S = dense_matrix(static_cast<Rank>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(remap::map_optimal_bmcm(S));
  }
}
BENCHMARK(BM_MapperOptimalBmcm)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_HemCoarsen(benchmark::State& state) {
  const auto mesh =
      mesh::make_box_mesh(mesh::small_box(static_cast<int>(state.range(0))));
  const auto dual = mesh.build_initial_dual();
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(partition::coarsen_hem(dual, rng));
  }
  state.SetItemsProcessed(state.iterations() * dual.num_vertices());
}
BENCHMARK(BM_HemCoarsen)->Arg(6)->Arg(10)->Arg(14);

void BM_MultilevelPartition(benchmark::State& state) {
  const auto mesh = mesh::make_box_mesh(mesh::small_box(10));
  const auto dual = mesh.build_initial_dual();
  partition::MultilevelOptions opt;
  opt.nparts = static_cast<Rank>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::partition(dual, opt));
  }
}
BENCHMARK(BM_MultilevelPartition)->Arg(4)->Arg(16)->Arg(64);

void BM_KwayRefine(benchmark::State& state) {
  const auto mesh = mesh::make_box_mesh(mesh::small_box(10));
  const auto dual = mesh.build_initial_dual();
  partition::MultilevelOptions opt;
  opt.nparts = 16;
  const auto base = partition::partition(dual, opt);
  partition::RefineOptions ropt;
  for (auto _ : state) {
    auto part = base.part;
    Rng rng(3);
    benchmark::DoNotOptimize(
        partition::refine_kway(dual, part, 16, ropt, rng));
  }
}
BENCHMARK(BM_KwayRefine);

void BM_MarkPropagation(benchmark::State& state) {
  auto mesh = mesh::make_box_mesh(mesh::small_box(10));
  Rng rng(5);
  std::vector<char> seeds(static_cast<std::size_t>(mesh.num_edges()), 0);
  for (auto& s : seeds) s = rng.uniform() < 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(adapt::propagate_marks(mesh, seeds));
  }
  state.SetItemsProcessed(state.iterations() * mesh.num_active_elements());
}
BENCHMARK(BM_MarkPropagation);

// Compute-bound BSP workload: each rank relaxes a private field of doubles
// and exchanges halo values with its ring neighbours every superstep. This
// is the pure-engine scaling probe — per-rank work is identical, so the
// wall-clock ratio between --threads 1 and --threads N is the engine
// speedup. The ledger counters are engine-invariant by the determinism
// contract and are exported so a smoke run can assert they stayed put.
void BM_BspStencilSweep(benchmark::State& state) {
  const Rank P = static_cast<Rank>(state.range(0));
  constexpr int kField = 1 << 14;   // doubles per rank
  constexpr int kSweeps = 4;        // relaxation passes per superstep
  constexpr int kSupersteps = 8;

  auto eng = rt::make_engine(P, g_threads);
  std::vector<std::vector<double>> field(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    auto& f = field[static_cast<std::size_t>(r)];
    f.resize(kField);
    for (int i = 0; i < kField; ++i) f[i] = r + 0.25 * i;
  }

  for (auto _ : state) {
    eng->run([&](Rank r, const rt::Inbox& in, rt::Outbox& out) {
      auto& f = field[static_cast<std::size_t>(r)];
      for (const auto& m : in.messages()) {
        f.front() = 0.5 * (f.front() + rt::unpack<double>(m)[0]);
      }
      for (int s = 0; s < kSweeps; ++s) {
        for (int i = 1; i + 1 < kField; ++i) {
          f[i] = 0.25 * f[i - 1] + 0.5 * f[i] + 0.25 * f[i + 1];
        }
      }
      out.charge(kField * kSweeps);
      if (out.step() + 1 >= kSupersteps) return false;
      out.send_vec<double>((r + 1) % P, 0, {f.back()});
      return true;
    });
    benchmark::DoNotOptimize(field);
  }

  const auto& led = eng->ledger();
  state.counters["threads"] = g_threads;
  state.counters["ledger_bytes_per_run"] =
      static_cast<double>(led.total_bytes()) /
      static_cast<double>(state.iterations());
  state.counters["ledger_max_compute"] =
      static_cast<double>(led.max_rank_compute()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_BspStencilSweep)->Arg(16)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The real workload: the parallel Euler solver sweeping a distributed box
// mesh. Residual exchange and CFL reduction go through the engine; fluxes
// are the per-rank compute. Modeled SP2 traffic (ledger) is identical for
// every --threads value.
void BM_ParallelSolverSweep(benchmark::State& state) {
  const Rank P = static_cast<Rank>(state.range(0));
  auto global = mesh::make_box_mesh(mesh::small_box(10));
  const auto dual = global.build_initial_dual();
  partition::MultilevelOptions popt;
  popt.nparts = P;
  const auto part = partition::partition(dual, popt).part;
  pmesh::DistMesh dm(global, part, P);

  auto eng = rt::make_engine(P, g_threads);
  pmesh::ParallelEulerSolver solver(&dm, eng.get());
  solver::BlastSpec blast;
  blast.radius = 0.2;
  for (Rank r = 0; r < P; ++r) {
    solver::init_blast(dm.local(r).mesh, solver.solution(r), blast);
  }

  for (auto _ : state) {
    solver.run(2);
  }

  const auto& led = eng->ledger();
  state.counters["threads"] = g_threads;
  state.counters["ledger_bytes"] = static_cast<double>(led.total_bytes());
  state.counters["supersteps"] = led.num_supersteps();
}
BENCHMARK(BM_ParallelSolverSweep)->Arg(16)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Fixed-iteration arithmetic for the hand-off benchmark: a multiply-xorshift
// chain the compiler cannot shorten, so its time is linear in `iters`.
std::uint64_t spin_work(std::uint64_t x, std::int64_t iters) {
  for (std::int64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return x;
}

// spin_work iterations per microsecond on this host, measured once (best
// of three 2^22-iteration runs on the calling thread).
double spin_iters_per_us() {
  static const double rate = [] {
    constexpr std::int64_t kProbe = std::int64_t{1} << 22;
    double best_s = 1e30;
    std::uint64_t x = 1;
    for (int rep = 0; rep < 3; ++rep) {
      const Timer t;
      x = spin_work(x, kProbe);
      best_s = std::min(best_s, t.seconds());
    }
    benchmark::DoNotOptimize(x);
    return static_cast<double>(kProbe) / (best_s * 1e6);
  }();
  return rate;
}

// Superstep hand-off cost: every rank runs spin_work sized to `work_us`
// microseconds and sends one message to each ring neighbour. The ideal
// superstep takes ceil(P / threads) * work_us; `handoff_us` is what the
// engine adds on top (waking threads, waiting for the last rank, the
// barrier exchange). Manual time covers run() only, not the ledger reset
// that keeps memory flat. A wall-clock number: reported, never gated.
void BM_SuperstepHandOff(benchmark::State& state) {
  const Rank P = static_cast<Rank>(state.range(0));
  const double work_us = static_cast<double>(state.range(1));
  const std::int64_t iters = std::llround(work_us * spin_iters_per_us());
  constexpr int kSupersteps = 20;

  auto eng = rt::make_engine(P, g_threads);
  const auto* par = dynamic_cast<const rt::ParallelEngine*>(eng.get());
  const int threads = par != nullptr ? par->num_threads() : 1;
  std::vector<std::uint64_t> acc(static_cast<std::size_t>(P), 1);

  double run_s = 0;
  for (auto _ : state) {
    const Timer t;
    eng->run([&](Rank r, const rt::Inbox& in, rt::Outbox& out) {
      std::uint64_t& a = acc[static_cast<std::size_t>(r)];
      for (const auto& m : in.messages()) {
        a ^= rt::unpack<std::uint64_t>(m)[0];
      }
      a = spin_work(a, iters);
      if (out.step() + 1 >= kSupersteps) return false;
      out.send_vec<std::uint64_t>((r + 1) % P, 0, {a});
      out.send_vec<std::uint64_t>((r + P - 1) % P, 0, {a});
      return true;
    });
    const double s = t.seconds();
    state.SetIterationTime(s);
    run_s += s;
    eng->reset_ledger();
  }
  benchmark::DoNotOptimize(acc.data());

  const double us_per_step =
      run_s * 1e6 / (static_cast<double>(state.iterations()) * kSupersteps);
  const double ideal_us = static_cast<double>((P + threads - 1) / threads) *
                          work_us;
  state.counters["threads"] = threads;
  state.counters["us_per_superstep"] = us_per_step;
  state.counters["handoff_us"] = us_per_step - ideal_us;
}
BENCHMARK(BM_SuperstepHandOff)
    ->Args({8, 60})
    ->Args({16, 20})
    ->Args({128, 5})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// The flight recorder is always on in DistFramework, so its per-event cost
// is a budget item: one ring-slot write per rank per superstep must stay in
// the tens of nanoseconds for "always on" to be defensible. Each event goes
// through record_rank_step, the call the engines make after every rank
// step; rotating the rank spreads writes across the per-rank rings like
// the engines do.
void BM_ScopeRecorderEvent(benchmark::State& state) {
  const Rank P = static_cast<Rank>(state.range(0));
  obs::FlightRecorder rec(P);
  rt::StepCounters counters;
  std::int64_t step = 0;
  for (auto _ : state) {
    counters.compute_units = step;
    rec.record_rank_step(static_cast<int>(step), static_cast<Rank>(step % P),
                         counters, /*wall_ns=*/0);
    ++step;
  }
  benchmark::DoNotOptimize(rec.events_recorded(0));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopeRecorderEvent)->Arg(16);

// Deterministic companion report for the plum-diff gate: a fixed recording
// workload whose ring-accounting counters (events recorded, survivors,
// overwrites) are pure functions of the capacity and event count, plus the
// measured per-event overhead as a wall-named (report-only) metric. Written
// on every bench_micro invocation, whatever --benchmark_filter selected.
std::string write_scope_report() {
  constexpr Rank kRanks = 16;
  constexpr int kCapacity = 256;
  constexpr std::int64_t kEventsPerRank = 1000;  // > capacity: ring wraps

  obs::FlightRecorder rec(kRanks, kCapacity);
  rt::StepCounters counters;
  const Timer timer;
  for (std::int64_t e = 0; e < kEventsPerRank; ++e) {
    counters.compute_units = e;
    for (Rank r = 0; r < kRanks; ++r) {
      rec.record_rank_step(static_cast<int>(e), r, counters, /*wall_ns=*/0);
    }
  }
  const double total_s = timer.seconds();
  const auto total_events = kEventsPerRank * kRanks;

  std::int64_t recorded = 0, surviving = 0;
  for (Rank r = 0; r < kRanks; ++r) {
    recorded += static_cast<std::int64_t>(rec.events_recorded(r));
    surviving += static_cast<std::int64_t>(rec.last_events(r).size());
  }

  bench::JsonReport report("bench_micro_scope");
  report.add_run("ring16", kRanks)
      .metric_int("events_recorded", recorded)
      .metric_int("events_surviving", surviving)
      .metric_int("events_overwritten", recorded - surviving)
      .metric_int("ring_capacity", rec.capacity())
      // Wall-named => plum-diff reports it without gating: per-event
      // recording overhead in nanoseconds.
      .metric("scope_event_wall_ns",
              total_s * 1e9 / static_cast<double>(total_events));
  return report.write();
}

// Arena bump allocation against the operator-new path the scratch
// conversion replaced. The bump must stay single-digit nanoseconds for
// "arena-back the hot phases" to be free in steady state (reset() rewinds,
// so after the first iteration no chunk is ever requested again).
void BM_ArenaAllocate(benchmark::State& state) {
  obs::Arena arena;
  constexpr int kAllocs = 1024;
  for (auto _ : state) {
    arena.reset();
    for (int i = 0; i < kAllocs; ++i) {
      benchmark::DoNotOptimize(arena.allocate(64, 8));
    }
  }
  state.SetItemsProcessed(state.iterations() * kAllocs);
}
BENCHMARK(BM_ArenaAllocate);

void BM_ArenaHeapBaseline(benchmark::State& state) {
  constexpr int kAllocs = 1024;
  std::vector<void*> ptrs(kAllocs);
  for (auto _ : state) {
    for (int i = 0; i < kAllocs; ++i) {
      ptrs[static_cast<std::size_t>(i)] = ::operator new(64);
      benchmark::DoNotOptimize(ptrs[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < kAllocs; ++i) {
      ::operator delete(ptrs[static_cast<std::size_t>(i)]);
    }
  }
  state.SetItemsProcessed(state.iterations() * kAllocs);
}
BENCHMARK(BM_ArenaHeapBaseline);

// TrackedVec growth through the allocator adapter: Arg(1) arena-backed,
// Arg(0) plain heap. The delta between the two is the arena's win.
void BM_ArenaTrackedVecGrow(benchmark::State& state) {
  const bool use_arena = state.range(0) != 0;
  obs::MemoryTracker mem(1);
  constexpr int kElems = 4096;
  for (auto _ : state) {
    mem.reset_arenas();
    obs::TrackedVec<std::int64_t> v{obs::TrackingAllocator<std::int64_t>{
        use_arena ? mem.scratch(0) : nullptr}};
    for (int i = 0; i < kElems; ++i) v.push_back(i);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * kElems);
}
BENCHMARK(BM_ArenaTrackedVecGrow)->Arg(0)->Arg(1);

void BM_Subdivision(benchmark::State& state) {
  // Mesh + marks rebuilt each iteration (refine mutates); time is dominated
  // by refine_mesh itself.
  for (auto _ : state) {
    state.PauseTiming();
    auto mesh = mesh::make_box_mesh(mesh::small_box(8));
    Rng rng(5);
    std::vector<char> seeds(static_cast<std::size_t>(mesh.num_edges()), 0);
    for (auto& s : seeds) s = rng.uniform() < 0.10;
    const auto marks = adapt::propagate_marks(mesh, seeds);
    state.ResumeTiming();
    benchmark::DoNotOptimize(adapt::refine_mesh(mesh, marks));
  }
}
BENCHMARK(BM_Subdivision);

}  // namespace

// Custom main: strip our --threads flag before handing the rest to
// google-benchmark (it rejects flags it does not know).
int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--threads") == 0) {
      value = i + 1 < argc ? argv[++i] : "";
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      value = argv[i] + 10;
    } else {
      args.push_back(argv[i]);
      continue;
    }
    if (!plum::bench::parse_count(value, &g_threads)) {
      std::fprintf(stderr, "usage: %s [--threads N] [benchmark flags]\n",
                   argv[0]);
      return 2;
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Always emit the deterministic scope-recorder report (plum-diff gates
  // its counters against bench/baselines/).
  if (write_scope_report().empty()) return 1;
  return 0;
}
