#pragma once
// MetricsRegistry: a flat, name -> scalar store for run-level results
// (speedups, imbalance factors, modeled seconds, ...) plus named time
// series ("gauges") appended to once per Framework cycle (imbalance, edge
// cut, RemapVolume breakdown) and fixed-bound histograms (per-rank step
// seconds, wait fractions — see obs/critical_path.hpp). Names are kept in
// sorted order (std::map — unordered containers are banned on
// deterministic paths, see plum-lint) so the JSON rendering is stable: the
// same metric values always produce the same bytes, regardless of
// insertion order at the call sites.
//
// Rank-safety: the registry is host-side state. Record into it between
// supersteps (e.g. at the end of a Framework cycle), never from inside a
// superstep lambda — plum-lint's shared-accumulator check flags naive
// `registry.set(...)` / `registry.add_sample(...)` calls there. Per-rank
// quantities must flow through StepCounters / rank-indexed slots and be
// folded into the registry at the barrier.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace plum::obs {

class MetricsRegistry {
 public:
  /// Sets (or overwrites) a metric. Integer and floating flavors are kept
  /// distinct so counts render as JSON integers.
  void set(const std::string& name, double value);
  void set_int(const std::string& name, std::int64_t value);

  /// Appends one sample to the named gauge series (created on first use).
  /// A name is either a scalar, a series, or a histogram, never two of
  /// those at once.
  void add_sample(const std::string& name, double value);
  void add_sample_int(const std::string& name, std::int64_t value);

  /// Appends one sample to a *wall-marked* gauge series: a series fed from
  /// wall-clock or otherwise nondeterministic measurements (e.g. the
  /// coordinator's RSS gauges). Wall series render in to_json() as
  /// {"series":true,"wall":true,"samples":[...]}
  /// objects and are omitted from deterministic_json(), exactly like
  /// wall-clock histograms, so recording them never breaks the
  /// cross-engine/transport byte-identity contract.
  void add_wall_sample(const std::string& name, double value);
  void add_wall_sample_int(const std::string& name, std::int64_t value);

  /// Defines a fixed-bound histogram: `bounds` are ascending bucket upper
  /// bounds; values above the last bound land in an implicit overflow
  /// bucket, so there are bounds.size() + 1 counts. Bounds are fixed at
  /// definition time — quantiles render deterministically as bucket upper
  /// bounds, never interpolated sample values. `wall_clock` marks
  /// histograms fed from wall-clock measurements; deterministic_json()
  /// omits them (wall samples vary across engines/thread counts and would
  /// break the cross-engine byte-identity contract). Redefining an
  /// existing histogram is a no-op (the original bounds stay).
  void define_histogram(const std::string& name, std::vector<double> bounds,
                        bool wall_clock = false);
  /// Adds one sample to a histogram defined with define_histogram().
  void add_hist_sample(const std::string& name, double value);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Value as double (integer metrics widen); asserts on a missing name or
  /// a series name (use series()).
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] bool is_series(const std::string& name) const;
  /// Samples of a gauge as doubles (integer samples widen); asserts on a
  /// missing or scalar name.
  [[nodiscard]] std::vector<double> series(const std::string& name) const;

  [[nodiscard]] bool is_histogram(const std::string& name) const;
  /// Total samples recorded into a histogram; asserts unless is_histogram.
  [[nodiscard]] std::int64_t hist_count(const std::string& name) const;
  /// Largest sample seen (0 when empty); asserts unless is_histogram.
  [[nodiscard]] double hist_max(const std::string& name) const;
  /// Deterministic quantile: the upper bound of the bucket holding the
  /// ceil(q*n)-th sample; overflow-bucket hits report hist_max(). 0 when
  /// the histogram is empty. Asserts unless is_histogram.
  [[nodiscard]] double hist_quantile(const std::string& name, double q) const;

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  void clear() { values_.clear(); }

  /// {"name": value, ...} with names in sorted order; series render as
  /// arrays of samples in append order (wall series as
  /// {"series":true,"wall":true,"samples":[...]} objects); histograms
  /// render as objects:
  ///   {"histogram":true,"wall":...,"count":n,"max":...,"p50":...,
  ///    "p95":...,"bounds":[...],"counts":[...]}
  [[nodiscard]] Json to_json() const;

  /// Same document minus every wall-clock histogram and wall-marked
  /// series. Byte-identical across engines and thread counts for
  /// deterministic workloads — the view the cross-engine tests compare.
  [[nodiscard]] Json deterministic_json() const;

 private:
  struct Value {
    bool integral = false;
    bool series = false;
    bool histogram = false;
    bool wall = false;  ///< histogram/series holds wall-clock samples
    double d = 0;
    std::int64_t i = 0;
    std::vector<double> samples_d;
    std::vector<std::int64_t> samples_i;
    std::vector<double> bounds;        ///< ascending bucket upper bounds
    std::vector<std::int64_t> counts;  ///< bounds.size() + 1 (overflow last)
    double hist_max = 0;
    std::int64_t hist_n = 0;
  };

  [[nodiscard]] Json to_json_impl(bool include_wall_clock) const;
  static double quantile_of(const Value& v, double q);

  std::map<std::string, Value> values_;
};

}  // namespace plum::obs
