#include "diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/bench_schema.hpp"

namespace plum::diff {

namespace {

using obs::Json;

/// Wall-clock metric names are report-only: they vary run to run by
/// construction, so gating on them would make the gate flaky. Histograms
/// carry an explicit "wall" flag instead of relying on the name.
bool is_wall_name(const std::string& name) {
  if (name == "wall_s") return true;
  const std::string suffix = "_seconds";
  if (name.size() >= suffix.size() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
    // Deterministic modeled times are always called *modeled*; every other
    // *_seconds metric is measured wall clock (gain_seconds/cost_seconds
    // from the gate are modeled and spelled gain_s/cost_s in reports).
    return name.find("modeled") == std::string::npos;
  }
  return name.find("wall") != std::string::npos;
}

std::string render(const Json& v) {
  return v.dump();  // compact, deterministic
}

class Differ {
 public:
  Differ(const Options& opt, DiffResult* out) : opt_(opt), out_(out) {}

  void compare_reports(const Json& base, const Json& cur) {
    compare_string(base.find("schema"), cur.find("schema"), "schema");
    compare_string(base.find("bench"), cur.find("bench"), "bench");

    const Json* bruns = base.find("runs");
    const Json* cruns = cur.find("runs");
    if (!bruns || !cruns) return;  // validation already guaranteed these

    // Match runs by (case, P), preserving baseline order.
    for (std::size_t i = 0; i < bruns->size(); ++i) {
      const Json& br = bruns->at(i);
      const std::string key = run_key(br);
      const Json* cr = find_run(*cruns, br);
      if (!cr) {
        breach_entry("run[" + key + "]", "present", "MISSING");
        continue;
      }
      compare_run(br, *cr, "run[" + key + "]");
    }
    for (std::size_t i = 0; i < cruns->size(); ++i) {
      const Json& cr = cruns->at(i);
      if (!find_run(*bruns, cr)) {
        breach_entry("run[" + run_key(cr) + "]", "MISSING", "present");
      }
    }
  }

 private:
  static std::string run_key(const Json& run) {
    const Json* c = run.find("case");
    const Json* p = run.find("P");
    std::string key = c && c->is_string() ? c->as_string() : "?";
    key += ",P=";
    key += p && p->kind() == Json::Kind::kInt ? std::to_string(p->as_int())
                                              : "?";
    return key;
  }

  static const Json* find_run(const Json& runs, const Json& want) {
    const std::string key = run_key(want);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (run_key(runs.at(i)) == key) return &runs.at(i);
    }
    return nullptr;
  }

  double tol_for(const std::string& leaf_name) const {
    const auto it = opt_.metric_tol.find(leaf_name);
    return it != opt_.metric_tol.end() ? it->second : opt_.rel_tol;
  }

  void record(Delta d) {
    if (d.breach) ++out_->breaches;
    out_->deltas.push_back(std::move(d));
  }

  void breach_entry(const std::string& where, std::string base,
                    std::string cur) {
    Delta d;
    d.where = where;
    d.baseline = std::move(base);
    d.current = std::move(cur);
    d.breach = true;
    record(std::move(d));
  }

  /// Report-only surfacing of a wall-sourced drift (e.g. a wall gauge
  /// present in the current run but absent from the baseline).
  void wall_entry(const std::string& where, std::string base,
                  std::string cur) {
    Delta d;
    d.where = where;
    d.baseline = std::move(base);
    d.current = std::move(cur);
    d.wall = true;
    record(std::move(d));
  }

  /// Wall-sourced metric entries are report-only even when one side lacks
  /// them entirely: wall-named scalars/series, and the registry's
  /// wall-flagged histogram/series objects. Wall gauges measure the host,
  /// not the algorithm, so presence asymmetry between two runs must not
  /// breach.
  static bool is_wall_entry(const std::string& name, const Json* v) {
    if (is_wall_name(name)) return true;
    if (v != nullptr && v->is_object()) {
      const Json* w = v->find("wall");
      return w != nullptr && w->kind() == Json::Kind::kBool && w->as_bool();
    }
    return false;
  }

  /// Numeric leaf. `leaf` is the bare metric name used for tolerance
  /// lookup; `wall` marks the value report-only.
  void compare_number(const Json* b, const Json* c, const std::string& where,
                      const std::string& leaf, bool wall) {
    ++out_->compared;
    if (!b || !c || !b->is_number() || !c->is_number()) {
      breach_entry(where, b ? render(*b) : "MISSING",
                   c ? render(*c) : "MISSING");
      return;
    }
    const double bv = b->as_double();
    const double cv = c->as_double();
    const bool both_int = b->kind() == Json::Kind::kInt &&
                          c->kind() == Json::Kind::kInt;
    if (both_int && b->as_int() == c->as_int()) return;
    if (!both_int && bv == cv) return;

    Delta d;
    d.where = where;
    d.baseline = render(*b);
    d.current = render(*c);
    const double denom = std::max(std::abs(bv), std::abs(cv));
    d.rel = denom > 0 ? std::abs(cv - bv) / denom : 0.0;
    d.wall = wall;
    if (wall) {
      record(std::move(d));  // report-only
      return;
    }
    d.tol = tol_for(leaf);
    // Integers are deterministic counters: exact match required unless an
    // explicit per-metric tolerance loosens them.
    if (both_int && opt_.metric_tol.count(leaf) == 0) {
      d.breach = true;
    } else {
      d.breach = d.rel > d.tol;
    }
    record(std::move(d));
  }

  void compare_string(const Json* b, const Json* c, const std::string& where) {
    ++out_->compared;
    const std::string bs = b && b->is_string() ? b->as_string() : "MISSING";
    const std::string cs = c && c->is_string() ? c->as_string() : "MISSING";
    if (bs != cs) breach_entry(where, bs, cs);
  }

  void compare_exact(const Json* b, const Json* c, const std::string& where) {
    ++out_->compared;
    const std::string bs = b ? render(*b) : "MISSING";
    const std::string cs = c ? render(*c) : "MISSING";
    if (bs != cs) breach_entry(where, bs, cs);
  }

  void compare_series(const Json& b, const Json& c, const std::string& where,
                      const std::string& leaf, bool wall) {
    if (b.size() != c.size()) {
      breach_entry(where + ".len", std::to_string(b.size()),
                   std::to_string(c.size()));
      return;
    }
    for (std::size_t k = 0; k < b.size(); ++k) {
      compare_number(&b.at(k), &c.at(k),
                     where + "[" + std::to_string(k) + "]", leaf, wall);
    }
  }

  void compare_histogram(const Json& b, const Json& c,
                         const std::string& where, const std::string& leaf) {
    const Json* bw = b.find("wall");
    const bool wall = bw && bw->kind() == Json::Kind::kBool && bw->as_bool();
    // Tagged series object ({"series":true,...}, obs::MetricsRegistry's
    // wall-marked series): compare the samples arrays, honoring the flag.
    if (const Json* bs = b.find("series");
        bs && bs->kind() == Json::Kind::kBool && bs->as_bool()) {
      const Json* bsamp = b.find("samples");
      const Json* csamp = c.find("samples");
      if (!bsamp || !csamp || !bsamp->is_array() || !csamp->is_array()) {
        if (wall) {
          wall_entry(where + ".samples", bsamp ? "present" : "MISSING",
                     csamp ? "present" : "MISSING");
        } else {
          breach_entry(where + ".samples", bsamp ? "present" : "MISSING",
                       csamp ? "present" : "MISSING");
        }
        return;
      }
      if (wall && bsamp->size() != csamp->size()) {
        // Report-only series may legitimately differ in length (e.g. RSS
        // gauges sampled once per cycle across different cycle counts).
        wall_entry(where + ".len", std::to_string(bsamp->size()),
                   std::to_string(csamp->size()));
        return;
      }
      compare_series(*bsamp, *csamp, where, leaf, wall);
      return;
    }
    if (wall) {
      // Report-only: surface a count/max drift line, never breach.
      compare_number(b.find("count"), c.find("count"), where + ".count",
                     leaf, /*wall=*/true);
      compare_number(b.find("max"), c.find("max"), where + ".max", leaf,
                     /*wall=*/true);
      return;
    }
    compare_exact(b.find("count"), c.find("count"), where + ".count");
    compare_exact(b.find("counts"), c.find("counts"), where + ".counts");
    compare_exact(b.find("bounds"), c.find("bounds"), where + ".bounds");
    for (const char* q : {"p50", "p95", "max"}) {
      compare_number(b.find(q), c.find(q), where + "." + q, leaf,
                     /*wall=*/false);
    }
  }

  void compare_metrics(const Json& b, const Json& c,
                       const std::string& where) {
    for (const auto& [name, bv] : b.items()) {
      const Json* cv = c.find(name);
      const std::string w = where + "." + name;
      if (!cv) {
        if (is_wall_entry(name, &bv)) {
          wall_entry(w, "present", "MISSING");
        } else {
          breach_entry(w, render(bv), "MISSING");
        }
        continue;
      }
      const bool wall = is_wall_name(name);
      if (bv.is_number() && cv->is_number()) {
        compare_number(&bv, cv, w, name, wall);
      } else if (bv.is_array() && cv->is_array()) {
        compare_series(bv, *cv, w, name, wall);
      } else if (bv.is_object() && cv->is_object()) {
        compare_histogram(bv, *cv, w, name);
      } else {
        breach_entry(w, render(bv), render(*cv));  // shape changed
      }
    }
    for (const auto& [name, cv] : c.items()) {
      if (!b.find(name)) {
        if (is_wall_entry(name, &cv)) {
          wall_entry(where + "." + name, "MISSING", "present");
        } else {
          breach_entry(where + "." + name, "MISSING", render(cv));
        }
      }
    }
  }

  void compare_phases(const Json& b, const Json& c, const std::string& where) {
    if (b.size() != c.size()) {
      breach_entry(where + ".len", std::to_string(b.size()),
                   std::to_string(c.size()));
      return;
    }
    for (std::size_t k = 0; k < b.size(); ++k) {
      const Json& bp = b.at(k);
      const Json& cp = c.at(k);
      const std::string w = where + "[" + std::to_string(k) + "]";
      compare_string(bp.find("name"), cp.find("name"), w + ".name");
      for (const char* field :
           {"supersteps", "depth", "compute_units", "msgs_sent",
            "bytes_sent"}) {
        if (bp.find(field) || cp.find(field)) {
          compare_exact(bp.find(field), cp.find(field),
                        w + "." + field);
        }
      }
      compare_number(bp.find("modeled_s"), cp.find("modeled_s"),
                     w + ".modeled_s", "modeled_s", /*wall=*/false);
      for (const char* field : {"wall_s", "superstep_s"}) {
        if (bp.find(field) || cp.find(field)) {
          compare_number(bp.find(field), cp.find(field), w + "." + field,
                         field, /*wall=*/true);
        }
      }
    }
  }

  void compare_comm_matrix(const Json& b, const Json& c,
                           const std::string& where) {
    compare_exact(b.find("nranks"), c.find("nranks"), where + ".nranks");
    for (const char* field : {"msgs", "bytes"}) {
      const Json* bm = b.find(field);
      const Json* cm = c.find(field);
      ++out_->compared;
      const std::string bs = bm ? bm->dump() : "MISSING";
      const std::string cs = cm ? cm->dump() : "MISSING";
      if (bs != cs) {
        // One summary line per matrix (totals), not one per cell.
        breach_entry(where + "." + field,
                     "total=" + std::to_string(matrix_total(bm)),
                     "total=" + std::to_string(matrix_total(cm)));
      }
    }
  }

  static std::int64_t matrix_total(const Json* m) {
    if (!m || !m->is_array()) return -1;
    std::int64_t total = 0;
    for (std::size_t r = 0; r < m->size(); ++r) {
      const Json& row = m->at(r);
      for (std::size_t cidx = 0; cidx < row.size(); ++cidx) {
        if (row.at(cidx).kind() == Json::Kind::kInt) {
          total += row.at(cidx).as_int();
        }
      }
    }
    return total;
  }

  void compare_gate_audit(const Json& b, const Json& c,
                          const std::string& where) {
    if (b.size() != c.size()) {
      breach_entry(where + ".len", std::to_string(b.size()),
                   std::to_string(c.size()));
      return;
    }
    for (std::size_t k = 0; k < b.size(); ++k) {
      const Json& br = b.at(k);
      const Json& cr = c.at(k);
      const std::string w = where + "[" + std::to_string(k) + "]";
      for (const char* field :
           {"cycle", "evaluated", "accepted", "predicted_move_bytes",
            "measured_move_bytes"}) {
        compare_exact(br.find(field), cr.find(field), w + "." + field);
      }
      compare_string(br.find("metric"), cr.find("metric"), w + ".metric");
      for (const char* field :
           {"imbalance_old", "imbalance_new", "gain_s", "cost_s", "drift"}) {
        compare_number(br.find(field), cr.find(field), w + "." + field,
                       field, /*wall=*/false);
      }
    }
  }

  void compare_critical_path(const Json& b, const Json& c,
                             const std::string& where) {
    for (const char* field :
         {"critical_total", "busy_total", "wait_total", "wait_fraction"}) {
      compare_number(b.find(field), c.find(field), where + "." + field,
                     field, /*wall=*/false);
    }
    for (const char* section : {"ranks", "phases", "steps"}) {
      const Json* bs = b.find(section);
      const Json* cs = c.find(section);
      const std::string w = where + "." + section;
      if (!bs || !cs) {
        compare_exact(bs, cs, w);
        continue;
      }
      if (bs->size() != cs->size()) {
        breach_entry(w + ".len", std::to_string(bs->size()),
                     std::to_string(cs->size()));
        continue;
      }
      for (std::size_t k = 0; k < bs->size(); ++k) {
        const Json& be = bs->at(k);
        const Json& ce = cs->at(k);
        const std::string we = w + "[" + std::to_string(k) + "]";
        for (const auto& [name, bv] : be.items()) {
          const Json* cv = ce.find(name);
          if (bv.is_number() && bv.kind() == Json::Kind::kDouble) {
            compare_number(&bv, cv, we + "." + name, name, /*wall=*/false);
          } else {
            compare_exact(&bv, cv, we + "." + name);
          }
        }
      }
    }
  }

  void compare_run(const Json& b, const Json& c, const std::string& where) {
    if (const Json* bm = b.find("metrics")) {
      const Json* cm = c.find("metrics");
      if (cm) compare_metrics(*bm, *cm, where + ".metrics");
    }
    if (const Json* bp = b.find("phases")) {
      const Json* cp = c.find("phases");
      if (cp && bp->is_array() && cp->is_array()) {
        compare_phases(*bp, *cp, where + ".phases");
      }
    }
    for (const char* section : {"comm_matrix", "gate_audit", "critical_path"}) {
      const Json* bsec = b.find(section);
      const Json* csec = c.find(section);
      if (!bsec && !csec) continue;
      if (!bsec || !csec) {
        breach_entry(where + "." + section, bsec ? "present" : "MISSING",
                     csec ? "present" : "MISSING");
        continue;
      }
      const std::string w = where + "." + section;
      if (std::string(section) == "comm_matrix") {
        compare_comm_matrix(*bsec, *csec, w);
      } else if (std::string(section) == "gate_audit") {
        compare_gate_audit(*bsec, *csec, w);
      } else {
        compare_critical_path(*bsec, *csec, w);
      }
    }
  }

  const Options& opt_;
  DiffResult* out_;
};

bool load_json(const std::string& path, Json* out, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string perr;
  if (!Json::parse(buf.str(), out, &perr)) {
    *err = path + ": parse error: " + perr;
    return false;
  }
  return true;
}

}  // namespace

DiffResult diff_reports(const Json& baseline, const Json& current,
                        const Options& opt) {
  DiffResult result;
  if (std::string err = obs::validate_bench_report(baseline); !err.empty()) {
    result.error = "baseline: " + err;
    return result;
  }
  if (std::string err = obs::validate_bench_report(current); !err.empty()) {
    result.error = "current: " + err;
    return result;
  }
  Differ d(opt, &result);
  d.compare_reports(baseline, current);
  return result;
}

DiffResult diff_files(const std::string& baseline_path,
                      const std::string& current_path, const Options& opt) {
  DiffResult result;
  Json base, cur;
  if (!load_json(baseline_path, &base, &result.error)) return result;
  if (!load_json(current_path, &cur, &result.error)) return result;
  result = diff_reports(base, cur, opt);
  if (!result.error.empty()) {
    result.error = baseline_path + " vs " + current_path + ": " + result.error;
  }
  return result;
}

DiffResult diff_dirs(const std::string& baseline_dir,
                     const std::string& current_dir, const Options& opt) {
  namespace fs = std::filesystem;
  DiffResult result;

  const auto bench_files = [&result](const std::string& dir) {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
          name.compare(name.size() - 5, 5, ".json") == 0) {
        names.push_back(name);
      }
    }
    if (ec) result.error = dir + ": " + ec.message();
    std::sort(names.begin(), names.end());
    return names;
  };

  const std::vector<std::string> base_names = bench_files(baseline_dir);
  if (!result.error.empty()) return result;
  const std::vector<std::string> cur_names = bench_files(current_dir);
  if (!result.error.empty()) return result;
  if (base_names.empty()) {
    result.error = baseline_dir + ": no BENCH_*.json files";
    return result;
  }

  for (const std::string& name : base_names) {
    if (!std::binary_search(cur_names.begin(), cur_names.end(), name)) {
      Delta d;
      d.where = name;
      d.baseline = "present";
      d.current = "MISSING";
      d.breach = true;
      result.deltas.push_back(std::move(d));
      ++result.breaches;
      continue;
    }
    DiffResult one =
        diff_files(baseline_dir + "/" + name, current_dir + "/" + name, opt);
    if (!one.error.empty()) {
      result.error = one.error;
      return result;
    }
    for (Delta& d : one.deltas) {
      d.where = name + ":" + d.where;
      result.deltas.push_back(std::move(d));
    }
    result.compared += one.compared;
    result.breaches += one.breaches;
  }
  for (const std::string& name : cur_names) {
    if (!std::binary_search(base_names.begin(), base_names.end(), name)) {
      Delta d;
      d.where = name;
      d.baseline = "MISSING (commit a baseline: tools/regen_baselines.sh)";
      d.current = "present";
      d.breach = true;
      result.deltas.push_back(std::move(d));
      ++result.breaches;
    }
  }
  return result;
}

void print_delta_table(const DiffResult& result, std::FILE* out) {
  if (!result.error.empty()) {
    std::fprintf(out, "plum-diff: error: %s\n", result.error.c_str());
    return;
  }
  if (!result.deltas.empty()) {
    std::fprintf(out, "%-8s %-58s %16s %16s %10s\n", "status", "metric",
                 "baseline", "current", "delta");
    for (const Delta& d : result.deltas) {
      const char* status = d.breach ? "BREACH" : (d.wall ? "wall" : "ok");
      std::fprintf(out, "%-8s %-58s %16s %16s %+9.3f%%\n", status,
                   d.where.c_str(), d.baseline.c_str(), d.current.c_str(),
                   100.0 * d.rel);
    }
  }
  std::fprintf(out,
               "plum-diff: %d values compared, %zu changed, %d breaches\n",
               result.compared, result.deltas.size(), result.breaches);
}

int exit_status(const DiffResult& result) {
  if (!result.error.empty()) return 2;
  return result.breaches > 0 ? 1 : 0;
}

}  // namespace plum::diff
