#include "obs/metrics.hpp"

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

bool MetricsRegistry::contains(const std::string& name) const {
  return values_.count(name) != 0;
}

double MetricsRegistry::get(const std::string& name) const {
  const auto it = values_.find(name);
  PLUM_ASSERT_MSG(it != values_.end(), "unknown metric");
  PLUM_ASSERT_MSG(!it->second.series, "metric is a series; use series()");
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

Json MetricsRegistry::to_json() const {
  Json out = Json::object();
  for (const auto& [name, v] : values_) {
    if (!v.series) {
      out.set(name, v.integral ? Json::integer(v.i) : Json::number(v.d));
      continue;
    }
    Json arr = Json::array();
    if (v.integral) {
      for (const auto s : v.samples_i) arr.push(Json::integer(s));
    } else {
      for (const auto s : v.samples_d) arr.push(Json::number(s));
    }
    out.set(name, std::move(arr));
  }
  return out;
}

}  // namespace plum::obs
