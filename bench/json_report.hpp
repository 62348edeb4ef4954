#pragma once
// Machine-readable bench output: BENCH_<name>.json, schema "plum-bench/3"
// (obs/bench_schema.hpp), the only document a bench run writes.
//
// Every figure/table bench builds a JsonReport alongside its io::Table so
// CI (and downstream plotting) can consume the numbers without scraping
// stdout:
//
//   {
//     "schema": "plum-bench/3",
//     "bench":  "bench_distributed",
//     "runs": [
//       { "case": "box8", "P": 8,
//         "metrics": { "wall_s": ..., "edge_cut": [412, 398, ...], ... },
//         "phases":  [ { "name": "solve", "wall_s": ..., "modeled_s": ...,
//                        "supersteps": ..., ... }, ... ],
//         "critical_path": {...}, "gate_audit": [...],
//         "comm_by_class": {...}, "comm_matrix": {...} },
//       ...
//     ]
//   }
//
// A framework run gets its metrics, phases, critical path, gate audit and
// tag-class traffic from obs::run_entry (Run::entry); the bench adds its
// own scalars and, where P is small, "comm_matrix".
//
// The output directory defaults to the working directory and is overridden
// by PLUM_BENCH_JSON_DIR. tools/plum-report validates the files in CI
// with the same obs::validate_bench_report the unit tests use.

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <string>
#include <utility>

#include "obs/bench_schema.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_entry.hpp"
#include "util/types.hpp"

namespace plum::bench {

class JsonReport {
 public:
  /// One (case, P) record under "runs".
  class Run {
   public:
    Run(std::string case_name, Rank nprocs)
        : case_(std::move(case_name)), nprocs_(nprocs) {}

    Run& metric(const std::string& name, double value) {
      metrics_.set(name, value);
      return *this;
    }
    Run& metric_int(const std::string& name, std::int64_t value) {
      metrics_.set_int(name, value);
      return *this;
    }

    /// Appends one phase record by hand (benches that model phases without
    /// running the BSP loop).
    Run& phase(const std::string& name, double wall_s, double modeled_s,
               int supersteps = 0) {
      obs::Json p = obs::Json::object();
      p.set("name", obs::Json::str(name))
          .set("wall_s", obs::Json::number(wall_s))
          .set("modeled_s", obs::Json::number(modeled_s))
          .set("supersteps", obs::Json::integer(supersteps));
      phases_.push(std::move(p));
      return *this;
    }

    /// Takes a framework run's entry (obs::run_entry): its metrics join
    /// this run's, overriding a bench scalar of the same name; its phases
    /// follow any added by hand; every other section is copied as is.
    Run& entry(const obs::Json& e) {
      for (const auto& [key, value] : e.items()) {
        if (key == "metrics") {
          entry_metrics_ = value;
        } else if (key == "phases") {
          for (std::size_t i = 0; i < value.size(); ++i) {
            phases_.push(value.at(i));
          }
        } else {
          sections_.set(key, value);
        }
      }
      return *this;
    }

    /// Attaches the run's P-by-P comm matrix (from the engine ledger) as
    /// the "comm_matrix" section.
    Run& comm_matrix_from(const rt::CommMatrix& m) {
      sections_.set("comm_matrix", obs::comm_matrix_json(m));
      return *this;
    }

    [[nodiscard]] obs::Json to_json() const {
      obs::Json metrics = metrics_.to_json();
      for (const auto& [name, value] : entry_metrics_.items()) {
        metrics.set(name, value);
      }
      obs::Json r = obs::Json::object();
      r.set("case", obs::Json::str(case_))
          .set("P", obs::Json::integer(nprocs_))
          .set("metrics", std::move(metrics))
          .set("phases", phases_);
      for (const auto& [key, value] : sections_.items()) r.set(key, value);
      return r;
    }

   private:
    std::string case_;
    Rank nprocs_;
    obs::MetricsRegistry metrics_;
    obs::Json entry_metrics_ = obs::Json::object();
    obs::Json phases_ = obs::Json::array();
    obs::Json sections_ = obs::Json::object();  ///< in insertion order
  };

  explicit JsonReport(std::string bench_name) : bench_(std::move(bench_name)) {}

  Run& add_run(const std::string& case_name, Rank nprocs) {
    runs_.emplace_back(case_name, nprocs);
    return runs_.back();
  }

  [[nodiscard]] obs::Json to_json() const {
    obs::Json doc = obs::Json::object();
    doc.set("schema", obs::Json::str("plum-bench/3"))
        .set("bench", obs::Json::str(bench_));
    obs::Json runs = obs::Json::array();
    for (const auto& r : runs_) runs.push(r.to_json());
    doc.set("runs", std::move(runs));
    return doc;
  }

  /// Writes BENCH_<name>.json into $PLUM_BENCH_JSON_DIR (default: cwd).
  /// Self-validates against the schema first; returns the path written, or
  /// "" on validation/IO failure (and says why on stderr).
  std::string write() const {
    const obs::Json doc = to_json();
    const std::string err = obs::validate_bench_report(doc);
    if (!err.empty()) {
      std::fprintf(stderr, "BENCH_%s.json failed self-validation: %s\n",
                   bench_.c_str(), err.c_str());
      return "";
    }
    const char* dir = std::getenv("PLUM_BENCH_JSON_DIR");
    std::string path = (dir && dir[0]) ? std::string(dir) : std::string(".");
    path += "/BENCH_" + bench_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return "";
    }
    out << doc.dump(2) << '\n';
    if (!out) {
      std::fprintf(stderr, "short write to %s\n", path.c_str());
      return "";
    }
    return path;
  }

 private:
  std::string bench_;
  std::deque<Run> runs_;  // stable references across add_run calls
};

}  // namespace plum::bench
