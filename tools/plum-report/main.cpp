// plum-report: renders plum observability JSON into a human-readable run
// report. Accepts any mix of the three kinds a run leaves behind:
//
//   BENCH_*.json      — "plum-bench/3" run documents (obs/bench_schema.hpp),
//   SCOPE streams     — "plum-scope/1" NDJSON live-run streams (one record
//                       per cycle; rendered as a cycle timeline),
//   POSTMORTEM_*.json — "plum-postmortem/1" crash dumps (reason, last-N
//                       ring events per rank).
//
// For each run of a document it prints the metrics and gauge timelines
// (imbalance / edge cut / remap volumes, histograms), the per-phase table,
// the counter-sourced critical path, the P x P comm matrix with row/column
// sums, the gate history with predicted-vs-measured drift, the heap table
// and the per-tag-class traffic.
//
//   plum-report bench-json/BENCH_*.json bench-json/scope_weak.ndjson
//
// Exit status: 0 on success, 1 when any input fails to parse or has none of
// the recognized shapes, 2 on usage/IO errors.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_schema.hpp"
#include "obs/json.hpp"
#include "obs/scope.hpp"

namespace {

using plum::obs::Json;

double num_or(const Json* v, double fallback) {
  if (!v || !v->is_number()) return fallback;
  return v->kind() == Json::Kind::kInt ? static_cast<double>(v->as_int())
                                       : v->as_double();
}

std::int64_t int_or(const Json* v, std::int64_t fallback) {
  return v && v->kind() == Json::Kind::kInt ? v->as_int() : fallback;
}

std::string str_or(const Json* v, const std::string& fallback) {
  return v && v->is_string() ? v->as_string() : fallback;
}

void print_rule(char c = '-', int width = 72) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

// --- phases ----------------------------------------------------------------

void print_phases(const Json& phases) {
  if (!phases.is_array() || phases.size() == 0) return;
  std::printf("\nPhases:\n");
  std::printf("  %-22s %10s %14s %10s %12s %12s\n", "phase", "steps",
              "compute", "msgs", "bytes", "modeled_s");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Json& ph = phases.at(i);
    if (!ph.is_object()) continue;
    const int depth = static_cast<int>(int_or(ph.find("depth"), 0));
    std::string name(static_cast<std::size_t>(2 * depth), ' ');
    name += str_or(ph.find("name"), "?");
    std::printf("  %-22s %10lld %14lld %10lld %12lld %12.6f",
                name.c_str(),
                static_cast<long long>(int_or(ph.find("supersteps"), 0)),
                static_cast<long long>(int_or(ph.find("compute_units"), 0)),
                static_cast<long long>(int_or(ph.find("msgs_sent"), 0)),
                static_cast<long long>(int_or(ph.find("bytes_sent"), 0)),
                num_or(ph.find("modeled_s"), 0));
    if (const Json* wall = ph.find("wall_s")) {
      std::printf("  wall %.6fs", num_or(wall, 0));
      if (const Json* ss = ph.find("superstep_s")) {
        std::printf("  host ms %.3f",
                    1e3 * (num_or(wall, 0) - num_or(ss, 0)));
      }
    }
    std::printf("\n");
  }
}

// --- comm matrix -----------------------------------------------------------

void print_comm_matrix(const Json& cm) {
  const std::int64_t nranks = int_or(cm.find("nranks"), 0);
  const Json* bytes = cm.find("bytes");
  if (nranks <= 0 || !bytes || !bytes->is_array()) return;
  std::printf("\nComm matrix (bytes, row = sender, col = receiver), P = %lld:\n",
              static_cast<long long>(nranks));
  std::printf("  %6s", "");
  for (std::int64_t to = 0; to < nranks; ++to) {
    std::printf(" %10lld", static_cast<long long>(to));
  }
  std::printf(" %12s\n", "row_sum");
  std::vector<std::int64_t> col_sums(static_cast<std::size_t>(nranks), 0);
  std::int64_t total = 0;
  for (std::size_t from = 0; from < bytes->size(); ++from) {
    const Json& row = bytes->at(from);
    std::printf("  %6zu", from);
    std::int64_t row_sum = 0;
    for (std::size_t to = 0; to < row.size(); ++to) {
      const std::int64_t v = int_or(&row.at(to), 0);
      row_sum += v;
      col_sums[to] += v;
      std::printf(" %10lld", static_cast<long long>(v));
    }
    total += row_sum;
    std::printf(" %12lld\n", static_cast<long long>(row_sum));
  }
  std::printf("  %6s", "col");
  for (const std::int64_t c : col_sums) {
    std::printf(" %10lld", static_cast<long long>(c));
  }
  std::printf(" %12lld\n", static_cast<long long>(total));
}

void print_comm_by_class(const Json& by_class) {
  if (!by_class.is_object() || by_class.size() == 0) return;
  std::printf("\nTraffic by tag class:\n");
  for (const auto& [cls, t] : by_class.items()) {
    std::printf("  %-12s %10lld msgs %14lld bytes\n", cls.c_str(),
                static_cast<long long>(int_or(t.find("msgs"), 0)),
                static_cast<long long>(int_or(t.find("bytes"), 0)));
  }
}

// --- metrics / gauges ------------------------------------------------------

void print_metrics(const Json& metrics) {
  if (!metrics.is_object() || metrics.size() == 0) return;
  std::printf("\nMetrics:\n");
  for (const auto& [name, v] : metrics.items()) {
    if (v.is_object()) {
      // Fixed-bound histogram (MetricsRegistry::to_json() rendering).
      const Json* wall = v.find("wall");
      const bool is_wall =
          wall && wall->kind() == Json::Kind::kBool && wall->as_bool();
      std::printf("  %-26s hist n=%-6lld p50=%-10.6g p95=%-10.6g max=%-10.6g%s\n",
                  name.c_str(),
                  static_cast<long long>(int_or(v.find("count"), 0)),
                  num_or(v.find("p50"), 0), num_or(v.find("p95"), 0),
                  num_or(v.find("max"), 0), is_wall ? "  (wall)" : "");
      continue;
    }
    if (v.is_array()) {
      std::printf("  %-26s [", name.c_str());
      for (std::size_t i = 0; i < v.size(); ++i) {
        const Json& s = v.at(i);
        if (s.kind() == Json::Kind::kInt) {
          std::printf("%s%lld", i ? ", " : "",
                      static_cast<long long>(s.as_int()));
        } else {
          std::printf("%s%.4f", i ? ", " : "", num_or(&s, 0));
        }
      }
      std::printf("]  (%zu cycles)\n", v.size());
    } else if (v.kind() == Json::Kind::kInt) {
      std::printf("  %-26s %lld\n", name.c_str(),
                  static_cast<long long>(v.as_int()));
    } else if (v.is_number()) {
      std::printf("  %-26s %.6f\n", name.c_str(), v.as_double());
    }
  }
}

// --- critical path (plum-path) ---------------------------------------------

void print_critical_path(const Json& cp) {
  if (!cp.is_object()) return;
  std::printf("\nCritical path (compute units):\n");
  std::printf("  critical %.6g  busy %.6g  wait %.6g  (wait fraction %.1f%%)\n",
              num_or(cp.find("critical_total"), 0),
              num_or(cp.find("busy_total"), 0),
              num_or(cp.find("wait_total"), 0),
              100.0 * num_or(cp.find("wait_fraction"), 0));

  const Json* ranks = cp.find("ranks");
  if (ranks && ranks->is_array() && ranks->size() > 0) {
    std::printf("  %6s %14s %14s %8s %10s\n", "rank", "busy", "wait",
                "wait%", "crit_steps");
    for (std::size_t r = 0; r < ranks->size(); ++r) {
      const Json& rk = ranks->at(r);
      if (!rk.is_object()) continue;
      std::printf("  %6lld %14.6g %14.6g %7.1f%% %10lld\n",
                  static_cast<long long>(int_or(rk.find("rank"), 0)),
                  num_or(rk.find("busy"), 0), num_or(rk.find("wait"), 0),
                  100.0 * num_or(rk.find("wait_fraction"), 0),
                  static_cast<long long>(int_or(rk.find("steps_critical"), 0)));
    }
  }

  // Top straggler phases: the phases whose critical rank left the most
  // aggregate wait behind (the paper's per-phase bottleneck view).
  const Json* phases = cp.find("phases");
  if (phases && phases->is_array() && phases->size() > 0) {
    std::vector<std::size_t> order(phases->size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const double wa = num_or(phases->at(a).find("wait"), 0);
      const double wb = num_or(phases->at(b).find("wait"), 0);
      if (wa != wb) return wa > wb;
      return a < b;
    });
    const std::size_t topk = std::min<std::size_t>(5, order.size());
    std::printf("  top %zu straggler phases (by aggregate wait):\n", topk);
    for (std::size_t i = 0; i < topk; ++i) {
      const Json& ph = phases->at(order[i]);
      if (!ph.is_object()) continue;
      // Supersteps recorded outside any PhaseScope group under "".
      std::string name = str_or(ph.find("name"), "?");
      if (name.empty()) name = "(unphased)";
      std::printf("    %-22s wait %-12.6g (%5.1f%%)  worst rank %lld "
                  "(critical in %lld/%lld steps)\n", name.c_str(),
                  num_or(ph.find("wait"), 0),
                  100.0 * num_or(ph.find("wait_fraction"), 0),
                  static_cast<long long>(int_or(ph.find("worst_rank"), -1)),
                  static_cast<long long>(int_or(ph.find("worst_rank_steps"), 0)),
                  static_cast<long long>(int_or(ph.find("supersteps"), 0)));
    }
  }
}

// --- gate audit ------------------------------------------------------------

void print_gate_audit(const Json& audit) {
  if (!audit.is_array() || audit.size() == 0) return;
  std::printf("\nGate history:\n");
  std::printf("  %5s %-9s %-7s %8s %8s %12s %12s %12s %8s\n", "cycle",
              "decision", "metric", "imb_old", "imb_new", "gain_s", "cost_s",
              "moved_B", "drift");
  for (std::size_t i = 0; i < audit.size(); ++i) {
    const Json& rec = audit.at(i);
    if (!rec.is_object()) continue;
    const Json* evaluated = rec.find("evaluated");
    const Json* accepted = rec.find("accepted");
    const bool ev = evaluated && evaluated->kind() == Json::Kind::kBool &&
                    evaluated->as_bool();
    const bool acc = accepted && accepted->kind() == Json::Kind::kBool &&
                     accepted->as_bool();
    const char* decision = !ev ? "skipped" : (acc ? "ACCEPT" : "reject");
    std::printf("  %5lld %-9s %-7s %8.4f %8.4f %12.6f %12.6f %12lld %7.1f%%\n",
                static_cast<long long>(int_or(rec.find("cycle"), 0)), decision,
                str_or(rec.find("metric"), "?").c_str(),
                num_or(rec.find("imbalance_old"), 0),
                num_or(rec.find("imbalance_new"), 0),
                num_or(rec.find("gain_s"), 0), num_or(rec.find("cost_s"), 0),
                static_cast<long long>(
                    int_or(rec.find("measured_move_bytes"), 0)),
                100.0 * num_or(rec.find("drift"), 0));
  }
}

// --- plum-mem (heap profile) ------------------------------------------------

/// The run entry's heap section: per-phase allocation totals over every
/// row, the top-churn ranking, live bytes and (wall form) RSS.
void print_heap(const Json& heap) {
  const Json* phases = heap.find("phases");
  if (!phases || !phases->is_array()) return;

  struct PhaseSum {
    std::string name;
    std::int64_t allocs = 0;
    std::int64_t frees = 0;
    std::int64_t bytes = 0;
    std::int64_t peak = 0;  ///< largest row peak
  };
  auto read = [](std::string name, const Json& cell) {
    return PhaseSum{std::move(name), int_or(cell.find("allocs"), 0),
                    int_or(cell.find("frees"), 0),
                    int_or(cell.find("bytes"), 0),
                    int_or(cell.find("peak_live"), 0)};
  };
  std::vector<PhaseSum> sums;
  sums.reserve(phases->size() + 1);
  for (std::size_t p = 0; p < phases->size(); ++p) {
    sums.push_back(read(str_or(phases->at(p).find("name"), "?"),
                        phases->at(p)));
  }
  if (const Json* up = heap.find("unphased")) {
    sums.push_back(read("(unphased)", *up));
  }

  std::printf("\nHeap profile (all ranks + host):\n");
  std::printf("  %-14s %10s %10s %14s %14s\n", "phase", "allocs", "frees",
              "bytes_req", "peak_live_B");
  for (const PhaseSum& s : sums) {
    if (s.allocs == 0 && s.frees == 0 && s.bytes == 0) continue;
    std::printf("  %-14s %10lld %10lld %14lld %14lld\n", s.name.c_str(),
                static_cast<long long>(s.allocs),
                static_cast<long long>(s.frees),
                static_cast<long long>(s.bytes),
                static_cast<long long>(s.peak));
  }

  // Top churn: the phases paying the most allocation traffic (by bytes,
  // allocs as tiebreak) — the first places to point an arena at.
  std::vector<const PhaseSum*> rank;
  for (const PhaseSum& s : sums) {
    if (s.allocs > 0) rank.push_back(&s);
  }
  std::sort(rank.begin(), rank.end(),
            [](const PhaseSum* a, const PhaseSum* b) {
              if (a->bytes != b->bytes) return a->bytes > b->bytes;
              if (a->allocs != b->allocs) return a->allocs > b->allocs;
              return a->name < b->name;
            });
  if (!rank.empty()) {
    std::printf("  top churn:");
    for (std::size_t i = 0; i < rank.size() && i < 3; ++i) {
      std::printf("%s %zu. %s (%lld B / %lld allocs)", i ? " " : "", i + 1,
                  rank[i]->name.c_str(),
                  static_cast<long long>(rank[i]->bytes),
                  static_cast<long long>(rank[i]->allocs));
    }
    std::printf("\n");
  }

  const std::int64_t live_total = int_or(heap.find("live_bytes"), 0);
  if (live_total != 0) {
    std::printf("  live tracked bytes: %lld\n",
                static_cast<long long>(live_total));
  }
  if (const Json* rss = heap.find("rss")) {
    std::printf("  rss %.1f MB  hwm %.1f MB  (wall)\n",
                static_cast<double>(int_or(rss->find("vm_rss_bytes"), 0)) /
                    1e6,
                static_cast<double>(int_or(rss->find("vm_hwm_bytes"), 0)) /
                    1e6);
  }
}

// --- plum-scope (flight recorder / stream / postmortem) --------------------

/// One plum-scope/1 record as one timeline row.
void print_scope_record(const Json& rec) {
  const Json* gate = rec.find("gate");
  const Json* ev = gate ? gate->find("evaluated") : nullptr;
  const Json* acc = gate ? gate->find("accepted") : nullptr;
  const bool evaluated =
      ev && ev->kind() == Json::Kind::kBool && ev->as_bool();
  const bool accepted =
      acc && acc->kind() == Json::Kind::kBool && acc->as_bool();
  const char* decision =
      !evaluated ? "skipped" : (accepted ? "ACCEPT" : "reject");

  // Straggler summary from the per-rank busy/wait pairs.
  std::int64_t busy_total = 0, wait_total = 0, worst_wait = -1;
  std::int64_t worst_rank = -1;
  const Json* ranks = rec.find("ranks");
  const std::size_t nranks = ranks && ranks->is_array() ? ranks->size() : 0;
  for (std::size_t r = 0; r < nranks; ++r) {
    const Json& rk = ranks->at(r);
    const std::int64_t busy = int_or(rk.find("busy"), 0);
    const std::int64_t wait = int_or(rk.find("wait"), 0);
    busy_total += busy;
    wait_total += wait;
    if (wait > worst_wait) {
      worst_wait = wait;
      worst_rank = int_or(rk.find("rank"), static_cast<std::int64_t>(r));
    }
  }
  const double denom = static_cast<double>(busy_total + wait_total);
  std::printf("  %5lld %6lld %9lld %9.4f %-8s %10.6f %6.1f%% %10lld\n",
              static_cast<long long>(int_or(rec.find("cycle"), 0)),
              static_cast<long long>(int_or(rec.find("supersteps"), 0)),
              static_cast<long long>(int_or(rec.find("elements"), 0)),
              num_or(rec.find("imbalance"), 0), decision,
              num_or(rec.find("wall_s"), 0),
              denom > 0 ? 100.0 * static_cast<double>(wait_total) / denom : 0.0,
              static_cast<long long>(worst_rank));
}

void print_scope_header() {
  std::printf("  %5s %6s %9s %9s %-8s %10s %6s %10s\n", "cycle", "steps",
              "elems", "imb", "gate", "wall_s", "wait%", "worst_rank");
}

int report_scope_stream(const std::string& text, const std::string& path) {
  std::printf("Scope stream (plum-scope/1 cycle timeline):\n");
  print_scope_header();
  std::istringstream lines(text);
  std::string line;
  std::size_t lineno = 0;
  int failures = 0;
  Json last_record;
  bool have_record = false;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.empty()) continue;
    Json rec;
    std::string err;
    if (!Json::parse(line, &rec, &err)) {
      std::fprintf(stderr, "%s:%zu: parse error: %s\n", path.c_str(), lineno,
                   err.c_str());
      ++failures;
      continue;
    }
    err = plum::obs::validate_scope_record(rec);
    if (!err.empty()) {
      std::fprintf(stderr, "%s:%zu: invalid record: %s\n", path.c_str(),
                   lineno, err.c_str());
      ++failures;
      continue;
    }
    print_scope_record(rec);
    last_record = std::move(rec);
    have_record = true;
  }
  if (have_record) {
    std::printf("\nRun: %s\n",
                str_or(last_record.find("name"), "(unnamed)").c_str());
  }
  return failures == 0 && have_record ? 0 : 1;
}

int report_postmortem_doc(const Json& doc) {
  const std::string err = plum::obs::validate_postmortem(doc);
  if (!err.empty()) {
    std::fprintf(stderr, "invalid postmortem: %s\n", err.c_str());
    return 1;
  }
  std::printf("Postmortem: %s\n", str_or(doc.find("name"), "?").c_str());
  const Json* reason = doc.find("reason");
  std::printf("  assertion: %s\n", str_or(reason->find("expr"), "?").c_str());
  std::printf("  at:        %s:%lld\n", str_or(reason->find("file"), "?").c_str(),
              static_cast<long long>(int_or(reason->find("line"), 0)));
  const std::string msg = str_or(reason->find("msg"), "");
  if (!msg.empty()) std::printf("  message:   %s\n", msg.c_str());

  if (const Json* scope = doc.find("scope")) {
    const Json* phases = scope->find("phases");
    const Json* ranks = scope->find("ranks");
    std::printf("\nFlight recorder (last events per rank, oldest first; "
                "ring capacity %lld):\n",
                static_cast<long long>(int_or(scope->find("capacity"), 0)));
    for (std::size_t r = 0; ranks && r < ranks->size(); ++r) {
      const Json& rk = ranks->at(r);
      const Json* events = rk.find("events");
      std::printf("  rank %lld: %lld events recorded, %zu surviving\n",
                  static_cast<long long>(int_or(rk.find("rank"), 0)),
                  static_cast<long long>(int_or(rk.find("written"), 0)),
                  events && events->is_array() ? events->size() : 0);
      if (!events || !events->is_array()) continue;
      // Last 8 events per rank keep the dump readable; the JSON has all.
      const std::size_t n = events->size();
      const std::size_t first = n > 8 ? n - 8 : 0;
      for (std::size_t k = first; k < n; ++k) {
        const Json& e = events->at(k);
        const std::int64_t phase_id = int_or(e.find("phase"), -1);
        std::string phase = "(none)";
        if (phases && phases->is_array() && phase_id >= 0 &&
            static_cast<std::size_t>(phase_id) < phases->size()) {
          phase = str_or(&phases->at(static_cast<std::size_t>(phase_id)),
                         "(none)");
        }
        std::printf("    step %-6lld %-12s ticks %-10lld",
                    static_cast<long long>(int_or(e.find("step"), 0)),
                    phase.c_str(),
                    static_cast<long long>(int_or(e.find("ticks"), 0)));
        if (const Json* wall_ns = e.find("wall_ns")) {
          std::printf(" wall %.3fms",
                      static_cast<double>(int_or(wall_ns, 0)) / 1e6);
        }
        std::printf("\n");
      }
    }
  }
  return 0;
}

// --- run documents ---------------------------------------------------------

int report_bench_doc(const Json& doc) {
  const std::string err = plum::obs::validate_bench_report(doc);
  if (!err.empty()) {
    std::fprintf(stderr, "invalid bench report: %s\n", err.c_str());
    return 1;
  }
  std::printf("Bench: %s\n", str_or(doc.find("bench"), "?").c_str());
  const Json* runs = doc.find("runs");
  for (std::size_t i = 0; i < runs->size(); ++i) {
    const Json& run = runs->at(i);
    std::printf("\nRun %zu: case %s, P = %lld\n", i,
                str_or(run.find("case"), "?").c_str(),
                static_cast<long long>(int_or(run.find("P"), 0)));
    if (const Json* metrics = run.find("metrics")) print_metrics(*metrics);
    if (const Json* phases = run.find("phases")) print_phases(*phases);
    if (const Json* cp = run.find("critical_path")) print_critical_path(*cp);
    if (const Json* cm = run.find("comm_matrix")) print_comm_matrix(*cm);
    if (const Json* ga = run.find("gate_audit")) print_gate_audit(*ga);
    if (const Json* heap = run.find("heap")) print_heap(*heap);
    if (const Json* bc = run.find("comm_by_class")) print_comm_by_class(*bc);
  }
  return 0;
}

int report_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  Json doc;
  std::string err;
  if (!Json::parse(buf.str(), &doc, &err)) {
    // Multi-record plum-scope/1 streams are NDJSON: retry line by line
    // before reporting the whole-document parse error.
    const std::string text = buf.str();
    Json first;
    std::string line_err;
    const std::size_t eol = text.find('\n');
    if (eol != std::string::npos &&
        Json::parse(text.substr(0, eol), &first, &line_err) &&
        first.is_object() &&
        str_or(first.find("schema"), "") == "plum-scope/1") {
      print_rule('=');
      std::printf("%s\n", path.c_str());
      print_rule('=');
      return report_scope_stream(text, path);
    }
    std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(), err.c_str());
    return 1;
  }
  if (!doc.is_object()) {
    std::fprintf(stderr, "%s: top-level value is not an object\n",
                 path.c_str());
    return 1;
  }

  print_rule('=');
  std::printf("%s\n", path.c_str());
  print_rule('=');

  const std::string schema = str_or(doc.find("schema"), "");
  if (schema == "plum-bench/3") return report_bench_doc(doc);
  if (schema == "plum-postmortem/1") return report_postmortem_doc(doc);
  if (schema == "plum-scope/1") {
    // Single-record stream that parsed as one document.
    return report_scope_stream(buf.str(), path);
  }
  std::fprintf(stderr, "%s: unrecognized document shape\n", path.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: plum-report <BENCH_*.json|stream.ndjson|"
                 "POSTMORTEM_*.json> [...]\n");
    return 2;
  }
  int status = 0;
  for (int i = 1; i < argc; ++i) {
    const int rc = report_file(argv[i]);
    if (rc > status) status = rc;
    if (i + 1 < argc) std::printf("\n");
  }
  return status;
}
