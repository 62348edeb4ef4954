#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace plum::obs {

void MetricsRegistry::set(const std::string& name, double value) {
  Value v;
  v.d = value;
  values_[name] = std::move(v);
}

void MetricsRegistry::set_int(const std::string& name, std::int64_t value) {
  Value v;
  v.integral = true;
  v.i = value;
  values_[name] = std::move(v);
}

void MetricsRegistry::add_sample(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    Value v;
    v.series = true;
    v.samples_d.push_back(value);
    values_.emplace(name, std::move(v));
    return;
  }
  PLUM_ASSERT_MSG(it->second.series, "metric name already used as a scalar");
  PLUM_ASSERT_MSG(!it->second.integral, "gauge mixes int and double samples");
  it->second.samples_d.push_back(value);
}

void MetricsRegistry::add_sample_int(const std::string& name,
                                     std::int64_t value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    Value v;
    v.series = true;
    v.integral = true;
    v.samples_i.push_back(value);
    values_.emplace(name, std::move(v));
    return;
  }
  PLUM_ASSERT_MSG(it->second.series, "metric name already used as a scalar");
  PLUM_ASSERT_MSG(it->second.integral, "gauge mixes int and double samples");
  it->second.samples_i.push_back(value);
}

void MetricsRegistry::add_wall_sample(const std::string& name, double value) {
  add_sample(name, value);
  values_[name].wall = true;
}

void MetricsRegistry::add_wall_sample_int(const std::string& name,
                                          std::int64_t value) {
  add_sample_int(name, value);
  values_[name].wall = true;
}

void MetricsRegistry::define_histogram(const std::string& name,
                                       std::vector<double> bounds,
                                       bool wall_clock) {
  const auto it = values_.find(name);
  if (it != values_.end()) {
    PLUM_ASSERT_MSG(it->second.histogram,
                    "metric name already used as a scalar or series");
    return;  // keep the original bounds and samples
  }
  PLUM_ASSERT_MSG(!bounds.empty(), "histogram needs at least one bound");
  PLUM_ASSERT_MSG(std::is_sorted(bounds.begin(), bounds.end()),
                  "histogram bounds must ascend");
  Value v;
  v.histogram = true;
  v.wall = wall_clock;
  v.counts.assign(bounds.size() + 1, 0);
  v.bounds = std::move(bounds);
  values_.emplace(name, std::move(v));
}

void MetricsRegistry::add_hist_sample(const std::string& name, double value) {
  const auto it = values_.find(name);
  PLUM_ASSERT_MSG(it != values_.end() && it->second.histogram,
                  "add_hist_sample needs a define_histogram() name");
  Value& v = it->second;
  std::size_t b = 0;
  while (b < v.bounds.size() && value > v.bounds[b]) ++b;
  v.counts[b]++;
  v.hist_n++;
  v.hist_max = std::max(v.hist_max, value);
}

bool MetricsRegistry::is_histogram(const std::string& name) const {
  const auto it = values_.find(name);
  return it != values_.end() && it->second.histogram;
}

std::int64_t MetricsRegistry::hist_count(const std::string& name) const {
  const auto it = values_.find(name);
  PLUM_ASSERT_MSG(it != values_.end() && it->second.histogram,
                  "unknown histogram");
  return it->second.hist_n;
}

double MetricsRegistry::hist_max(const std::string& name) const {
  const auto it = values_.find(name);
  PLUM_ASSERT_MSG(it != values_.end() && it->second.histogram,
                  "unknown histogram");
  return it->second.hist_max;
}

double MetricsRegistry::quantile_of(const Value& v, double q) {
  if (v.hist_n == 0) return 0;
  std::int64_t target = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(v.hist_n)));
  target = std::max<std::int64_t>(target, 1);
  std::int64_t cum = 0;
  for (std::size_t b = 0; b < v.bounds.size(); ++b) {
    cum += v.counts[b];
    if (cum >= target) return v.bounds[b];
  }
  return v.hist_max;  // landed in the overflow bucket
}

double MetricsRegistry::hist_quantile(const std::string& name,
                                      double q) const {
  const auto it = values_.find(name);
  PLUM_ASSERT_MSG(it != values_.end() && it->second.histogram,
                  "unknown histogram");
  return quantile_of(it->second, q);
}

bool MetricsRegistry::contains(const std::string& name) const {
  return values_.count(name) != 0;
}

double MetricsRegistry::get(const std::string& name) const {
  const auto it = values_.find(name);
  PLUM_ASSERT_MSG(it != values_.end(), "unknown metric");
  PLUM_ASSERT_MSG(!it->second.series, "metric is a series; use series()");
  PLUM_ASSERT_MSG(!it->second.histogram,
                  "metric is a histogram; use hist_quantile()/hist_max()");
  return it->second.integral ? static_cast<double>(it->second.i) : it->second.d;
}

bool MetricsRegistry::is_series(const std::string& name) const {
  const auto it = values_.find(name);
  return it != values_.end() && it->second.series;
}

std::vector<double> MetricsRegistry::series(const std::string& name) const {
  const auto it = values_.find(name);
  PLUM_ASSERT_MSG(it != values_.end(), "unknown metric");
  PLUM_ASSERT_MSG(it->second.series, "metric is a scalar; use get()");
  if (!it->second.integral) return it->second.samples_d;
  std::vector<double> out;
  out.reserve(it->second.samples_i.size());
  for (const auto v : it->second.samples_i) {
    out.push_back(static_cast<double>(v));
  }
  return out;
}

Json MetricsRegistry::to_json_impl(bool include_wall_clock) const {
  Json out = Json::object();
  for (const auto& [name, v] : values_) {
    if (v.histogram) {
      if (v.wall && !include_wall_clock) continue;
      Json h = Json::object();
      h.set("histogram", Json::boolean(true))
          .set("wall", Json::boolean(v.wall))
          .set("count", Json::integer(v.hist_n))
          .set("max", Json::number(v.hist_max))
          .set("p50", Json::number(quantile_of(v, 0.50)))
          .set("p95", Json::number(quantile_of(v, 0.95)));
      Json bounds = Json::array();
      for (const auto b : v.bounds) bounds.push(Json::number(b));
      Json counts = Json::array();
      for (const auto c : v.counts) counts.push(Json::integer(c));
      h.set("bounds", std::move(bounds)).set("counts", std::move(counts));
      out.set(name, std::move(h));
      continue;
    }
    if (!v.series) {
      out.set(name, v.integral ? Json::integer(v.i) : Json::number(v.d));
      continue;
    }
    if (v.wall && !include_wall_clock) continue;
    Json arr = Json::array();
    if (v.integral) {
      for (const auto s : v.samples_i) arr.push(Json::integer(s));
    } else {
      for (const auto s : v.samples_d) arr.push(Json::number(s));
    }
    if (v.wall) {
      // Wall series render as tagged objects so consumers (plum-diff,
      // plum-report) can tell report-only gauges from gated ones.
      Json obj = Json::object();
      obj.set("series", Json::boolean(true))
          .set("wall", Json::boolean(true))
          .set("samples", std::move(arr));
      out.set(name, std::move(obj));
      continue;
    }
    out.set(name, std::move(arr));
  }
  return out;
}

Json MetricsRegistry::to_json() const { return to_json_impl(true); }

Json MetricsRegistry::deterministic_json() const {
  return to_json_impl(false);
}

}  // namespace plum::obs
