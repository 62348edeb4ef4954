// plum-bench: a repeatable benchmark of core::DistFramework::cycle().
//
//   plum_bench --workload <solve_p8|adapt_p16|weak_p128> --seed N
//              --seconds S --trace <0|1>
//
// --trace 0 times DistFramework::cycle() for S seconds at engine threads=4
// and reports the end-to-end metrics. --trace 1 spends S seconds on three
// passes: the driver again (the untraced reference for the overhead), then
// the traced replica (replica.hpp) at threads=4 and at threads=1; it
// reports the per-layer metrics. Both modes first run the workload on the
// sequential engine (threads=1) for the expected fingerprints, validate
// the distributed mesh and the solver replication after every timed cycle,
// and count each op whose fingerprint differs as failed. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <charconv>
#include <malloc.h>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "mesh/box_mesh.hpp"
#include "replica.hpp"
#include "util/rss.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace {

using namespace plum;
using namespace plumbench;

constexpr int kThreads = 4;     ///< engine workers of the measured runs
constexpr std::size_t kMinSetups = 15; ///< setup_s is a median over these
constexpr std::size_t kRefCycles = 2;  ///< reference cycles per framework

struct Cli {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool parse_cli(int argc, char** argv, Cli* cli) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      cli->workload = find_workload(val);
    } else if (key == "--seed") {
      cli->seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      cli->seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') cli->seconds = 0;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") == 0) cli->trace = 0;
      if (std::strcmp(val, "1") == 0) cli->trace = 1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && cli->workload != nullptr && have_seed &&
         cli->seconds > 0 && cli->trace >= 0;
}

double median(std::vector<double> v) {
  PLUM_ASSERT(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample (the largest when there are fewer than 11). `*pct`
/// receives its percentile rank.
double tail(std::vector<double> v, double* pct) {
  PLUM_ASSERT(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t i = n > 10 ? n - 11 : n - 1;
  *pct = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return v[i];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One timed cycle: its place in its framework's lifetime, its wall time
/// and what it produced.
struct Op {
  int pos = 0;
  double cycle_ms = 0;
  Fingerprint fp;
  double solve_imbalance = 1;
};

struct Pass {
  std::vector<Op> ops;
  std::vector<TracedCycle> traced;  ///< replica passes only
  std::vector<double> setup_s;
  /// Superstep records the first framework's telemetry retains at the end
  /// of its lifetime (trace + ledger), and their computed bytes.
  std::int64_t retained_records = 0;
  std::int64_t telemetry_bytes = 0;
};

bool matches(const Pass& ref, const Op& op) {
  const auto pos = static_cast<std::size_t>(op.pos);
  if (pos < ref.ops.size()) return op.fp == ref.ops[pos].fp;
  return op.fp.same_structure(ref.ops.back().fp);
}

/// Builds frameworks of workload `w` one after another: each runs one
/// untimed cycle (the warm-up, or the adaption that creates refinement
/// trees) and then `lifetime` timed cycles through `timed`. Stops once
/// `budget_s` has passed or `max_ops` timed cycles ran, but always lets
/// the first framework finish its lifetime, which `retire` then inspects.
template <class Build, class Timed, class Retire>
void drive(const Workload& w, double budget_s, std::size_t max_ops,
           Build build, Timed timed, Retire retire) {
  const Timer clock;
  std::size_t ops = 0;
  bool lived = false;
  auto more = [&] {
    return ops < max_ops && (!lived || clock.seconds() < budget_s);
  };
  while (more()) {
    auto fw = build();
    fw->cycle();
    int pos = 0;
    for (; pos < w.lifetime && more(); ++pos, ++ops) timed(*fw, pos);
    if (pos == w.lifetime && !lived) {
      retire(*fw);
      lived = true;
    }
    // Hand the freed heap back, so this framework's fragmentation does not
    // slow the next one or inflate the peak RSS.
    fw.reset();
    malloc_trim(0);
  }
}

std::int64_t counters_bytes(const std::vector<rt::StepCounters>& cs) {
  auto b = static_cast<std::int64_t>(cs.capacity() * sizeof(rt::StepCounters));
  for (const auto& c : cs) {
    b += static_cast<std::int64_t>(c.sends.capacity() * sizeof(rt::CommCell));
  }
  return b;
}

/// Bytes held by the per-superstep histories (trace records and ledger
/// steps), computed from their container capacities.
std::int64_t telemetry_bytes(core::DistFramework& fw) {
  std::int64_t b = 0;
  for (const auto& s : fw.trace().supersteps()) {
    b += static_cast<std::int64_t>(sizeof(obs::SuperstepRecord)) +
         counters_bytes(s.counters) +
         static_cast<std::int64_t>(s.rank_seconds.capacity() * sizeof(double));
  }
  for (const auto& s : fw.engine().ledger().steps) {
    b += static_cast<std::int64_t>(sizeof(s)) + counters_bytes(s);
  }
  return b;
}

/// Box mesh generation through a framework ready for its first cycle.
std::unique_ptr<core::DistFramework> build_framework(const Workload& w,
                                                     const Inputs& in,
                                                     int threads,
                                                     double* setup_s) {
  const Timer t;
  auto fw = std::make_unique<core::DistFramework>(
      mesh::make_box_mesh(mesh::small_box(w.boxn)),
      framework_options(w, in, threads));
  for (Rank r = 0; r < w.nranks; ++r) {
    solver::init_blast(fw->dist_mesh().local(r).mesh,
                       fw->solver().solution(r), in.blast);
  }
  *setup_s = t.seconds();
  return fw;
}

Pass framework_pass(const Workload& w, const Inputs& in, int threads,
                    double budget_s, std::size_t max_ops) {
  Pass p;
  auto build = [&] {
    double s = 0;
    auto fw = build_framework(w, in, threads, &s);
    p.setup_s.push_back(s);
    return fw;
  };
  auto timed = [&](core::DistFramework& fw, int pos) {
    const std::size_t ledger_lo = fw.engine().ledger().steps.size();
    const Timer t;
    const auto rep = fw.cycle();
    Op op;
    op.pos = pos;
    op.cycle_ms = t.seconds() * 1e3;
    fw.dist_mesh().validate();
    fw.solver().validate_replication();
    const CommDelta d = ledger_since(fw.engine().ledger(), ledger_lo);
    op.fp = {rep.elements_after, rep.elements_migrated,
             rep.evaluated_repartition, rep.accepted, d.msgs, d.bytes,
             hash_partition(fw.root_partition()),
             hash_states(fw.solver(), w.nranks)};
    op.solve_imbalance = imbalance(fw.elements_per_rank());
    p.ops.push_back(op);
  };
  auto retire = [&](core::DistFramework& fw) {
    p.retained_records = static_cast<std::int64_t>(
        fw.trace().supersteps().size() + fw.engine().ledger().steps.size());
    p.telemetry_bytes = telemetry_bytes(fw);
  };
  drive(w, budget_s, max_ops, build, timed, retire);
  return p;
}

Pass replica_pass(const Workload& w, const Inputs& in, int threads,
                  double budget_s) {
  Pass p;
  auto build = [&] {
    return std::make_unique<Replica>(
        mesh::make_box_mesh(mesh::small_box(w.boxn)),
        framework_options(w, in, threads), in.blast);
  };
  auto timed = [&](Replica& rp, int pos) {
    const TracedCycle tc = rp.cycle();
    rp.dist_mesh().validate();
    rp.solver().validate_replication();
    Op op;
    op.pos = pos;
    op.cycle_ms = tc.wall_s * 1e3;
    op.fp = {tc.elements_after, tc.migrate_elems, tc.evaluated, tc.accepted,
             tc.comm.msgs, tc.comm.bytes, hash_partition(rp.root_partition()),
             hash_states(rp.solver(), w.nranks)};
    p.ops.push_back(op);
    p.traced.push_back(tc);
  };
  drive(w, budget_s, std::numeric_limits<std::size_t>::max(), build, timed,
        [](Replica&) {});
  return p;
}

/// The expected fingerprints: the first cycles of one framework on the
/// sequential engine.
Pass reference_pass(const Workload& w, const Inputs& in) {
  const auto cycles =
      std::min(kRefCycles, static_cast<std::size_t>(w.lifetime));
  return framework_pass(w, in, 1, 0, cycles);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Checks every op of `p` against the reference and, where `peer` has an
/// op at the same index, against the peer's fingerprint.
void check_pass(const Pass& ref, const Pass& p, const Pass* peer,
                const char* label, Result* res) {
  for (std::size_t k = 0; k < p.ops.size(); ++k) {
    const Op& op = p.ops[k];
    bool ok = matches(ref, op);
    if (peer != nullptr && k < peer->ops.size()) {
      ok = ok && op.fp == peer->ops[k].fp;
    }
    ++res->attempted;
    if (!ok) {
      ++res->failed;
      std::printf("MISMATCH %s op %zu: %s\n", label, k, op.fp.str().c_str());
    }
  }
}

Result run_untraced(const Workload& w, const Inputs& in, double seconds) {
  const Pass ref = reference_pass(w, in);
  Pass p = framework_pass(w, in, kThreads, seconds,
                          std::numeric_limits<std::size_t>::max());
  while (p.setup_s.size() < kMinSetups) {
    double s = 0;
    build_framework(w, in, kThreads, &s);
    malloc_trim(0);
    p.setup_s.push_back(s);
  }
  Result res;
  check_pass(ref, p, nullptr, "driver", &res);

  std::vector<double> cycle_ms, imb;
  for (const Op& op : p.ops) {
    cycle_ms.push_back(op.cycle_ms);
    imb.push_back(op.solve_imbalance);
  }
  double pct = 0;
  const double tail_ms = tail(cycle_ms, &pct);
  std::printf("expected fingerprint: %s\n", ref.ops[0].fp.str().c_str());
  std::printf("cycle_ms.tail is p%.1f of %zu timed cycles; %zu setups\n", pct,
              cycle_ms.size(), p.setup_s.size());
  std::printf("fail_ratio %.4f (%lld of %lld ops)\n",
              ratio(static_cast<double>(res.failed),
                    static_cast<double>(res.attempted)),
              static_cast<long long>(res.failed),
              static_cast<long long>(res.attempted));
  res.metrics = {
      {"cycle_ms.p50", median(cycle_ms), "ms"},
      {"cycle_ms.tail", tail_ms, "ms"},
      {"setup_s", median(p.setup_s), "s"},
      {"solve_imbalance", median(imb), "ratio"},
      {"peak_rss_mb",
       static_cast<double>(util::read_rss().vm_hwm_bytes) / 1e6, "MB"},
  };
  return res;
}

Result run_traced(const Workload& w, const Inputs& in, double seconds) {
  const Pass ref = reference_pass(w, in);
  const double budget = seconds / 3;
  const Pass a = framework_pass(w, in, kThreads, budget,
                                std::numeric_limits<std::size_t>::max());
  const Pass b = replica_pass(w, in, kThreads, budget);
  const Pass c = replica_pass(w, in, 1, budget);
  Result res;
  check_pass(ref, a, nullptr, "driver t4", &res);
  check_pass(ref, b, &a, "replica t4", &res);
  check_pass(ref, c, &a, "replica t1", &res);
  std::printf("expected fingerprint: %s\n", ref.ops[0].fp.str().c_str());
  std::printf("traced cycles: %zu at threads=4, %zu at threads=1\n",
              b.traced.size(), c.traced.size());

  using Pick = std::function<double(const TracedCycle&)>;
  auto med = [](const std::vector<TracedCycle>& cs, const Pick& f) {
    std::vector<double> v;
    for (const auto& tc : cs) v.push_back(f(tc));
    return median(v);
  };
  using Layers = std::vector<Layer>;
  auto wall = [](Layers ls) -> Pick {
    return [ls](const TracedCycle& tc) {
      double s = 0;
      for (Layer l : ls) s += tc.spans[l].wall_s;
      return s;
    };
  };
  auto superstep = [](Layers ls) -> Pick {
    return [ls](const TracedCycle& tc) {
      double s = 0;
      for (Layer l : ls) s += tc.spans[l].superstep_s;
      return s;
    };
  };
  auto ms = [&](const Pick& f) { return med(b.traced, f) * 1e3; };
  auto count = [&](const Pick& f) { return med(b.traced, f); };
  auto speedup = [&](const Pick& f) {
    return ratio(med(c.traced, f), med(b.traced, f));
  };
  const Pick solver_t = wall({kSolve, kRebind});
  const Pick pmesh_t = wall({kMark, kMigrate, kRefine});
  const Pick core_t = [](const TracedCycle& tc) {
    double s = tc.wall_s;
    for (const Span& sp : tc.spans) s -= sp.wall_s;
    return s;
  };
  const Pick runtime_t = [](const TracedCycle& tc) { return tc.superstep_s; };
  const Pick cycle = [](const TracedCycle& tc) { return tc.wall_s; };
  auto host = [&](const Layers& ls) -> Pick {
    return [all = wall(ls), in_steps = superstep(ls)](const TracedCycle& tc) {
      return all(tc) - in_steps(tc);
    };
  };
  std::vector<double> driver_ms;
  for (const Op& op : a.ops) driver_ms.push_back(op.cycle_ms);
  const double steps = static_cast<double>(w.solver_steps);

  res.metrics = {
      {"solver.ms", ms(solver_t), "ms"},
      {"solver.superstep_ms", ms(superstep({kSolve, kRebind})), "ms"},
      {"solver.host_ms", ms(host({kSolve, kRebind})), "ms"},
      {"solver.elem_steps_per_s",
       count([&](const TracedCycle& tc) {
         return ratio(static_cast<double>(tc.solve_elements) * steps,
                      tc.spans[kSolve].wall_s);
       }),
       "1/s"},
      {"solver.flux_evals",
       count([](const TracedCycle& tc) {
         return static_cast<double>(tc.flux_evals);
       }),
       "count"},
      {"pmesh.mark_ms", ms(wall({kMark})), "ms"},
      {"pmesh.mark_rounds",
       count([](const TracedCycle& tc) {
         return static_cast<double>(tc.mark_rounds);
       }),
       "count"},
      {"pmesh.marks_exchanged",
       count([](const TracedCycle& tc) {
         return static_cast<double>(tc.marks_exchanged);
       }),
       "count"},
      {"partition.repartition_ms", ms(wall({kPartition})), "ms"},
      {"partition.levels",
       count([](const TracedCycle& tc) {
         return static_cast<double>(tc.partition_levels);
       }),
       "count"},
      {"partition.edge_cut",
       count([](const TracedCycle& tc) {
         return static_cast<double>(tc.edge_cut);
       }),
       "count"},
      {"remap.reassign_ms", ms(wall({kRemap})), "ms"},
      {"remap.total_elems",
       count([](const TracedCycle& tc) {
         return static_cast<double>(tc.volume.total_elems);
       }),
       "count"},
      {"remap.max_sent_or_recv",
       count([](const TracedCycle& tc) {
         return static_cast<double>(tc.volume.max_sent_or_recv);
       }),
       "count"},
      {"sim.gate_accepted",
       count([](const TracedCycle& tc) { return tc.accepted ? 1.0 : 0.0; }),
       "count"},
      {"sim.gain_s", count([](const TracedCycle& tc) { return tc.gain_s; }),
       "s"},
      {"sim.cost_s", count([](const TracedCycle& tc) { return tc.cost_s; }),
       "s"},
      {"pmesh.migrate_ms", ms(wall({kMigrate})), "ms"},
      {"pmesh.migrate_superstep_ms", ms(superstep({kMigrate})), "ms"},
      {"pmesh.migrate_host_ms", ms(host({kMigrate})), "ms"},
      {"pmesh.migrate_elems",
       count([](const TracedCycle& tc) {
         return static_cast<double>(tc.migrate_elems);
       }),
       "count"},
      {"pmesh.migrate_bytes",
       count([](const TracedCycle& tc) {
         return static_cast<double>(tc.migrate_bytes);
       }),
       "B"},
      {"pmesh.refine_ms", ms(wall({kRefine})), "ms"},
      {"pmesh.refine_host_ms", ms(host({kRefine})), "ms"},
      {"pmesh.refine_work_imbalance",
       count([](const TracedCycle& tc) { return tc.refine_work_imbalance; }),
       "ratio"},
      {"runtime.supersteps",
       count([](const TracedCycle& tc) {
         return static_cast<double>(tc.comm.supersteps);
       }),
       "count"},
      {"runtime.msgs",
       count([](const TracedCycle& tc) {
         return static_cast<double>(tc.comm.msgs);
       }),
       "count"},
      {"runtime.bytes",
       count([](const TracedCycle& tc) {
         return static_cast<double>(tc.comm.bytes);
       }),
       "B"},
      {"runtime.superstep_ms", ms(runtime_t), "ms"},
      {"core.host_ms", ms(core_t), "ms"},
      {"obs.retained_supersteps", static_cast<double>(a.retained_records),
       "count"},
      {"obs.live_bytes", static_cast<double>(a.telemetry_bytes), "B"},
      {"obs.trace_overhead_ms", ms(cycle) - median(driver_ms), "ms"},
      {"solver.speedup_t4", speedup(solver_t), "ratio"},
      {"pmesh.speedup_t4", speedup(pmesh_t), "ratio"},
      {"partition.speedup_t4", speedup(wall({kPartition})), "ratio"},
      {"remap.speedup_t4", speedup(wall({kRemap})), "ratio"},
      {"runtime.speedup_t4", speedup(runtime_t), "ratio"},
      {"core.speedup_t4", speedup(core_t), "ratio"},
      {"cycle.speedup_t4", speedup(cycle), "ratio"},
  };
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_cli(argc, argv, &cli)) {
    std::fprintf(stderr,
                 "usage: plum_bench --workload <solve_p8|adapt_p16|weak_p128> "
                 "--seed N --seconds S --trace <0|1>\n");
    return 2;
  }
  const Workload& w = *cli.workload;
  const Inputs in = make_inputs(cli.seed);
  std::printf("workload %s: P=%d box %d^3 (%d tets), %d solver steps, refine "
              "%.2f, trigger %.2f, threads %d, seed %llu, %s\n",
              w.name.c_str(), w.nranks, w.boxn, 6 * w.boxn * w.boxn * w.boxn,
              w.solver_steps, w.refine_fraction, w.imbalance_trigger, kThreads,
              static_cast<unsigned long long>(cli.seed),
              cli.trace != 0 ? "traced" : "untraced");
  const Result res = cli.trace != 0 ? run_traced(w, in, cli.seconds)
                                    : run_untraced(w, in, cli.seconds);

  std::string json = "{\"correct\": ";
  json += res.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    PLUM_ASSERT_MSG(std::isfinite(m.value), m.name.c_str());
    std::printf("%-28s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
