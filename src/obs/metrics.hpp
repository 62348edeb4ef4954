#pragma once
// MetricsRegistry: a flat, name -> scalar store for run-level results
// (speedups, imbalance factors, modeled seconds, ...) plus named time
// series ("gauges") appended to once per Framework cycle (edge cut,
// RemapVolume breakdown). Names are kept in sorted order (std::map —
// unordered containers are banned on deterministic paths, see plum-lint)
// so the JSON rendering is stable: the same metric values always produce
// the same bytes, regardless of insertion order at the call sites.
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
  /// A name is either a scalar or a series, never both.
  void add_sample(const std::string& name, double value);
  void add_sample_int(const std::string& name, std::int64_t value);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Value as double (integer metrics widen); asserts on a missing name or
  /// a series name (use series()).
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] bool is_series(const std::string& name) const;
  /// Samples of a gauge as doubles (integer samples widen); asserts on a
  /// missing or scalar name.
  [[nodiscard]] std::vector<double> series(const std::string& name) const;

  /// {"name": value, ...} with names in sorted order; series render as
  /// arrays of samples in append order.
  [[nodiscard]] Json to_json() const;

 private:
  struct Value {
    bool integral = false;
    bool series = false;
    double d = 0;
    std::int64_t i = 0;
    std::vector<double> samples_d;
    std::vector<std::int64_t> samples_i;
  };

  std::map<std::string, Value> values_;
};

}  // namespace plum::obs
