#include "diff.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/bench_schema.hpp"

namespace plum::diff {

namespace {

using obs::Json;

/// Relative tolerance for deterministic doubles: loose enough for last-bit
/// rounding differences, far tighter than any drift worth seeing.
constexpr double kRelTol = 1e-9;

/// Run sections that are validated but not compared.
bool ungated(const std::string& section) {
  return section == "comm_by_class";
}

/// Wall-clock names are report-only: they vary run to run by construction,
/// so gating on them would make the gate flaky.
bool is_wall_name(const std::string& name) {
  if (name == "wall_s" || name == "superstep_s") return true;
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

/// A leaf renders as itself; a container only by its presence.
std::string render(const Json& v) {
  return v.is_object() || v.is_array() ? "present" : v.dump();
}

void record(DiffResult* out, Delta d) {
  if (d.breach) ++out->breaches;
  out->deltas.push_back(std::move(d));
}

void breach(DiffResult* out, std::string where, std::string base,
            std::string cur) {
  record(out, {.where = std::move(where),
               .baseline = std::move(base),
               .current = std::move(cur),
               .breach = true});
}

/// "box8,P=4". Only called on validated documents, which carry both fields.
std::string run_key(const Json& run) {
  return run.find("case")->as_string() +
         ",P=" + std::to_string(run.find("P")->as_int());
}

const Json* find_run(const Json& runs, const std::string& key) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (run_key(runs.at(i)) == key) return &runs.at(i);
  }
  return nullptr;
}

/// The one comparison rule (see diff.hpp), applied recursively.
class Differ {
 public:
  explicit Differ(DiffResult* out) : out_(out) {}

  void compare_reports(const Json& base, const Json& cur) {
    for (const char* key : {"schema", "bench"}) {
      walk(*base.find(key), *cur.find(key), key, /*wall=*/false);
    }
    const Json& bruns = *base.find("runs");
    const Json& cruns = *cur.find("runs");
    for (std::size_t i = 0; i < bruns.size(); ++i) {
      const std::string key = run_key(bruns.at(i));
      if (const Json* cr = find_run(cruns, key)) {
        walk_object(bruns.at(i), *cr, "run[" + key + "]", /*wall=*/false,
                    /*run=*/true);
      } else {
        breach(out_, "run[" + key + "]", "present", "MISSING");
      }
    }
    for (std::size_t i = 0; i < cruns.size(); ++i) {
      const std::string key = run_key(cruns.at(i));
      if (!find_run(bruns, key)) {
        breach(out_, "run[" + key + "]", "MISSING", "present");
      }
    }
  }

 private:
  void walk(const Json& b, const Json& c, const std::string& where,
            bool wall) {
    if (b.is_object() && c.is_object()) {
      walk_object(b, c, where, wall, /*run=*/false);
    } else if (b.is_array() && c.is_array()) {
      if (b.size() != c.size()) {
        breach(out_, where + ".len", std::to_string(b.size()),
               std::to_string(c.size()));
        return;
      }
      for (std::size_t k = 0; k < b.size(); ++k) {
        walk(b.at(k), c.at(k), where + "[" + std::to_string(k) + "]", wall);
      }
    } else {
      compare_leaf(b, c, where, wall);
    }
  }

  /// `run` marks a run's top level, where the ungated sections are skipped.
  void walk_object(const Json& b, const Json& c, const std::string& where,
                   bool wall, bool run) {
    for (const auto& [key, bv] : b.items()) {
      if (run && ungated(key)) continue;
      if (const Json* cv = c.find(key)) {
        walk(bv, *cv, where + "." + key, wall || is_wall_name(key));
      } else {
        breach(out_, where + "." + key, render(bv), "MISSING");
      }
    }
    for (const auto& [key, cv] : c.items()) {
      if (!(run && ungated(key)) && !b.find(key)) {
        breach(out_, where + "." + key, "MISSING", render(cv));
      }
    }
  }

  void compare_leaf(const Json& b, const Json& c, const std::string& where,
                    bool wall) {
    ++out_->compared;
    Delta d{.where = where, .baseline = b.dump(), .current = c.dump()};
    if (b.is_number() && c.is_number()) {
      const bool ints =
          b.kind() == Json::Kind::kInt && c.kind() == Json::Kind::kInt;
      const double bv = b.as_double();
      const double cv = c.as_double();
      if (ints ? b.as_int() == c.as_int() : bv == cv) return;
      // Symmetric, so the tolerance does not depend on the direction.
      const double rel =
          std::abs(cv - bv) / std::max(std::abs(bv), std::abs(cv));
      if (bv != 0) d.change = (cv - bv) / std::abs(bv);
      d.wall = wall;
      d.breach = !wall && (ints || rel > kRelTol);
    } else {
      if (d.baseline == d.current) return;
      // A value of another kind is a shape change: it breaches under wall
      // too.
      d.wall = wall && b.kind() == c.kind();
      d.breach = !d.wall;
    }
    record(out_, std::move(d));
  }

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

DiffResult diff_reports(const Json& baseline, const Json& current) {
  DiffResult result;
  if (std::string err = obs::validate_bench_report(baseline); !err.empty()) {
    result.errors.push_back("baseline: " + err);
    return result;
  }
  if (std::string err = obs::validate_bench_report(current); !err.empty()) {
    result.errors.push_back("current: " + err);
    return result;
  }
  Differ(&result).compare_reports(baseline, current);
  return result;
}

DiffResult diff_files(const std::string& baseline_path,
                      const std::string& current_path) {
  DiffResult result;
  Json base, cur;
  std::string err;
  if (!load_json(baseline_path, &base, &err) ||
      !load_json(current_path, &cur, &err)) {
    result.errors.push_back(std::move(err));
    return result;
  }
  result = diff_reports(base, cur);
  for (std::string& e : result.errors) {
    e = baseline_path + " vs " + current_path + ": " + e;
  }
  return result;
}

DiffResult diff_dirs(const std::string& baseline_dir,
                     const std::string& current_dir) {
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
    if (ec) result.errors.push_back(dir + ": " + ec.message());
    std::sort(names.begin(), names.end());
    return names;
  };

  const std::vector<std::string> base_names = bench_files(baseline_dir);
  const std::vector<std::string> cur_names = bench_files(current_dir);
  if (!result.errors.empty()) return result;
  if (base_names.empty()) {
    result.errors.push_back(baseline_dir + ": no BENCH_*.json files");
    return result;
  }

  for (const std::string& name : base_names) {
    if (!std::binary_search(cur_names.begin(), cur_names.end(), name)) {
      breach(&result, name, "present", "MISSING");
      continue;
    }
    DiffResult one =
        diff_files(baseline_dir + "/" + name, current_dir + "/" + name);
    for (std::string& e : one.errors) result.errors.push_back(std::move(e));
    for (Delta& d : one.deltas) {
      d.where = name + ":" + d.where;
      result.deltas.push_back(std::move(d));
    }
    result.compared += one.compared;
    result.breaches += one.breaches;
  }
  for (const std::string& name : cur_names) {
    if (!std::binary_search(base_names.begin(), base_names.end(), name)) {
      breach(&result, name,
             "MISSING (commit a baseline: tools/regen_baselines.sh)",
             "present");
    }
  }
  return result;
}

void print_delta_table(const DiffResult& result, std::FILE* out) {
  for (const std::string& e : result.errors) {
    std::fprintf(out, "plum-diff: error: %s\n", e.c_str());
  }
  if (!result.deltas.empty()) {
    std::fprintf(out, "%-8s %-58s %16s %16s %10s\n", "status", "metric",
                 "baseline", "current", "delta");
    for (const Delta& d : result.deltas) {
      const char* status = d.breach ? "BREACH" : (d.wall ? "wall" : "ok");
      std::fprintf(out, "%-8s %-58s %16s %16s", status, d.where.c_str(),
                   d.baseline.c_str(), d.current.c_str());
      if (d.change) std::fprintf(out, " %+9.3f%%", 100.0 * *d.change);
      std::fprintf(out, "\n");
    }
  }
  std::fprintf(out,
               "plum-diff: %d values compared, %zu changed, %d breaches\n",
               result.compared, result.deltas.size(), result.breaches);
}

int exit_status(const DiffResult& result) {
  if (!result.errors.empty()) return 2;
  return result.breaches > 0 ? 1 : 0;
}

}  // namespace plum::diff
