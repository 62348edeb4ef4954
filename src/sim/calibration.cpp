#include "sim/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/gate_audit.hpp"
#include "util/assert.hpp"

namespace plum::sim {

namespace {

[[nodiscard]] bool finite_positive(double v) {
  return std::isfinite(v) && v > 0;
}

[[nodiscard]] double clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

/// Reads a non-negative finite number field; returns fallback when absent.
bool read_seconds(const obs::Json& obj, const char* key, double* out,
                  std::string* error) {
  const obs::Json* f = obj.find(key);
  if (!f) {
    *out = 0;
    return true;
  }
  if (!f->is_number() || !std::isfinite(f->as_double()) ||
      f->as_double() < 0) {
    if (error) *error = std::string(key) + " must be a non-negative number";
    return false;
  }
  *out = f->as_double();
  return true;
}

}  // namespace

// --- ReplayBook -------------------------------------------------------------

obs::Json ReplayBook::to_json() const {
  obs::Json doc = obs::Json::object();
  doc.set("schema", obs::Json::str("plum-replay/1"));
  obs::Json arr = obs::Json::array();
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    const ReplayCycle& c = cycles[i];
    obs::Json jc = obs::Json::object();
    jc.set("cycle", obs::Json::integer(static_cast<std::int64_t>(i)))
        .set("solve_seconds", obs::Json::number(c.solve_seconds))
        .set("remap_seconds", obs::Json::number(c.remap_seconds))
        .set("subdivide_seconds", obs::Json::number(c.subdivide_seconds));
    if (!c.rank_solve_seconds.empty()) {
      obs::Json rs = obs::Json::array();
      for (double s : c.rank_solve_seconds) rs.push(obs::Json::number(s));
      jc.set("rank_solve_seconds", std::move(rs));
    }
    arr.push(std::move(jc));
  }
  doc.set("cycles", std::move(arr));
  return doc;
}

bool ReplayBook::parse(const obs::Json& doc, ReplayBook* out,
                       std::string* error) {
  out->cycles.clear();
  if (!doc.is_object()) {
    if (error) *error = "replay book must be an object";
    return false;
  }
  const obs::Json* schema = doc.find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != "plum-replay/1") {
    if (error) *error = "schema must be \"plum-replay/1\"";
    return false;
  }
  const obs::Json* cyc = doc.find("cycles");
  if (!cyc || !cyc->is_array()) {
    if (error) *error = "cycles must be an array";
    return false;
  }
  for (std::size_t i = 0; i < cyc->size(); ++i) {
    const obs::Json& jc = cyc->at(i);
    if (!jc.is_object()) {
      if (error) *error = "cycles entries must be objects";
      return false;
    }
    ReplayCycle c;
    if (!read_seconds(jc, "solve_seconds", &c.solve_seconds, error) ||
        !read_seconds(jc, "remap_seconds", &c.remap_seconds, error) ||
        !read_seconds(jc, "subdivide_seconds", &c.subdivide_seconds, error)) {
      return false;
    }
    if (const obs::Json* rs = jc.find("rank_solve_seconds")) {
      if (!rs->is_array()) {
        if (error) *error = "rank_solve_seconds must be an array";
        return false;
      }
      for (std::size_t r = 0; r < rs->size(); ++r) {
        const obs::Json& v = rs->at(r);
        if (!v.is_number() || !std::isfinite(v.as_double()) ||
            v.as_double() < 0) {
          if (error) {
            *error = "rank_solve_seconds entries must be non-negative";
          }
          return false;
        }
        c.rank_solve_seconds.push_back(v.as_double());
      }
    }
    out->cycles.push_back(std::move(c));
  }
  return true;
}

bool ReplayBook::load(const std::string& path, ReplayBook* out,
                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  obs::Json doc;
  std::string perr;
  if (!obs::Json::parse(ss.str(), &doc, &perr)) {
    if (error) *error = path + ": " + perr;
    return false;
  }
  return parse(doc, out, error);
}

bool ReplayBook::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json().dump(2) << '\n';
  return static_cast<bool>(out);
}

// --- Calibration ------------------------------------------------------------

Calibration::Calibration(MachineParams initial, CalibrationOptions opt)
    : opt_(opt), p_(initial) {
  PLUM_ASSERT(opt_.damping > 0 && opt_.damping <= 1.0);
  PLUM_ASSERT(opt_.max_weight_scale >= 1.0);
}

double Calibration::mix(double current, double estimate) const {
  return (1.0 - opt_.damping) * current + opt_.damping * estimate;
}

void Calibration::Lsq2::add(double x1, double x2, double y, double decay) {
  a11 = decay * a11 + x1 * x1;
  a12 = decay * a12 + x1 * x2;
  a22 = decay * a22 + x2 * x2;
  b1 = decay * b1 + x1 * y;
  b2 = decay * b2 + x2 * y;
  ++n;
}

bool Calibration::Lsq2::solve(double* k1, double* k2) const {
  if (n < 2) return false;
  const double det = a11 * a22 - a12 * a12;
  // Relative conditioning test: collinear regressors (e.g. sets always
  // proportional to elements) make the normal equations numerically
  // singular even when det != 0 exactly.
  if (!(det > 1e-9 * a11 * a22)) return false;
  const double s1 = (b1 * a22 - b2 * a12) / det;
  const double s2 = (b2 * a11 - b1 * a12) / det;
  if (!finite_positive(s1) || !finite_positive(s2)) return false;
  *k1 = s1;
  *k2 = s2;
  return true;
}

std::int64_t Calibration::predicted_bytes(std::int64_t elems,
                                          std::int64_t sets) const {
  const CostModel cm(p_);
  return std::llround(cm.move_bytes_per_element() *
                          static_cast<double>(elems) +
                      p_.bytes_per_set * static_cast<double>(sets));
}

double Calibration::recalibrated_abs_drift(const CalibrationSample& s) const {
  return std::fabs(obs::gate_drift(
      predicted_bytes(s.moved_elems, s.moved_sets), s.measured_move_bytes));
}

void Calibration::observe(const CalibrationSample& s) {
  if (!opt_.enabled) return;
  ++cycles_;
  const double decay = 1.0 - opt_.damping;

  // --- timing fits ----------------------------------------------------------
  if (opt_.fit_timings) {
    if (s.solve_work > 0 && finite_positive(s.solve_seconds)) {
      p_.t_iter = mix(p_.t_iter,
                      s.solve_seconds / static_cast<double>(s.solve_work));
    }
    if (s.refine_children > 0 && finite_positive(s.subdivide_seconds)) {
      p_.t_refine =
          mix(p_.t_refine,
              s.subdivide_seconds / static_cast<double>(s.refine_children));
    }
    if (s.remap_executed && finite_positive(s.remap_seconds) &&
        s.moved_elems > 0) {
      // Regressors of the §4.5 cost kernel M*C*t_lat + N*t_setup.
      const double words = static_cast<double>(p_.words_per_element) *
                           static_cast<double>(s.moved_elems);
      const double sets = static_cast<double>(s.moved_sets);
      remap_fit_.add(words, sets, s.remap_seconds, decay);
      double t_lat = 0, t_setup = 0;
      if (remap_fit_.solve(&t_lat, &t_setup)) {
        p_.t_lat = mix(p_.t_lat, t_lat);
        p_.t_setup = mix(p_.t_setup, t_setup);
      } else {
        // Degenerate regressors: rescale both constants toward the
        // realized ratio so the total cost still converges.
        const double modeled = words * p_.t_lat + sets * p_.t_setup;
        if (finite_positive(modeled)) {
          const double blend = mix(1.0, s.remap_seconds / modeled);
          p_.t_lat *= blend;
          p_.t_setup *= blend;
        }
      }
    }
  }

  // --- byte fit (drives gate_drift toward 0) --------------------------------
  if (s.remap_executed) {
    ++remaps_;
    abs_drift_sum_ += std::fabs(
        obs::gate_drift(s.predicted_move_bytes, s.measured_move_bytes));
    if (opt_.fit_bytes && s.moved_elems > 0 && s.measured_move_bytes > 0) {
      const double elems = static_cast<double>(s.moved_elems);
      const double sets = static_cast<double>(s.moved_sets);
      const double measured = static_cast<double>(s.measured_move_bytes);
      bytes_fit_.add(elems, sets, measured, decay);
      const CostModel cm(p_);
      double per_elem = 0, per_set = 0;
      if (bytes_fit_.solve(&per_elem, &per_set)) {
        p_.bytes_per_element = mix(cm.move_bytes_per_element(), per_elem);
        p_.bytes_per_set = mix(p_.bytes_per_set, per_set);
      } else {
        const double modeled = cm.move_bytes_per_element() * elems +
                               p_.bytes_per_set * sets;
        if (finite_positive(modeled)) {
          const double blend = mix(1.0, measured / modeled);
          p_.bytes_per_element = cm.move_bytes_per_element() * blend;
          p_.bytes_per_set *= blend;
        }
      }
    }
    if (opt_.tune_gate_margin && s.predicted_move_bytes > 0 &&
        s.measured_move_bytes > 0) {
      const double realized = static_cast<double>(s.measured_move_bytes) /
                              static_cast<double>(s.predicted_move_bytes);
      p_.gate_margin = clamp(mix(p_.gate_margin, realized),
                             opt_.min_gate_margin, opt_.max_gate_margin);
    }
  }

  // --- Wcomp blend factors --------------------------------------------------
  if (opt_.blend_measured_weights && !s.rank_solve_seconds.empty() &&
      s.rank_solve_seconds.size() == s.rank_elements.size()) {
    double total_s = 0;
    std::int64_t total_e = 0;
    for (std::size_t r = 0; r < s.rank_solve_seconds.size(); ++r) {
      total_s += s.rank_solve_seconds[r];
      total_e += s.rank_elements[r];
    }
    if (total_e > 0 && finite_positive(total_s)) {
      const double mean = total_s / static_cast<double>(total_e);
      if (weight_scale_.size() != s.rank_solve_seconds.size()) {
        weight_scale_.assign(s.rank_solve_seconds.size(), 1.0);
      }
      for (std::size_t r = 0; r < weight_scale_.size(); ++r) {
        double factor = 1.0;
        if (s.rank_elements[r] > 0 &&
            finite_positive(s.rank_solve_seconds[r])) {
          const double per_elem = s.rank_solve_seconds[r] /
                                  static_cast<double>(s.rank_elements[r]);
          factor = clamp(per_elem / mean, 1.0 / opt_.max_weight_scale,
                         opt_.max_weight_scale);
        }
        weight_scale_[r] = mix(weight_scale_[r], factor);
      }
    }
  }
}

double Calibration::mean_abs_drift() const {
  return remaps_ > 0 ? abs_drift_sum_ / static_cast<double>(remaps_) : 0.0;
}

void blend_weights(std::vector<Weight>& wcomp, const std::vector<Rank>& owner,
                   const std::vector<double>& scale) {
  if (scale.empty()) return;
  PLUM_ASSERT(wcomp.size() == owner.size());
  for (std::size_t v = 0; v < wcomp.size(); ++v) {
    const auto r = static_cast<std::size_t>(owner[v]);
    if (r >= scale.size() || scale[r] == 1.0) continue;
    wcomp[v] = std::max<Weight>(
        1, std::llround(static_cast<double>(wcomp[v]) * scale[r]));
  }
}

obs::Json Calibration::to_json() const {
  obs::Json doc = obs::Json::object();
  doc.set("enabled", obs::Json::boolean(opt_.enabled))
      .set("cycles_observed", obs::Json::integer(cycles_))
      .set("remap_samples", obs::Json::integer(remaps_))
      .set("mean_abs_drift", obs::Json::number(mean_abs_drift()));
  obs::Json params = obs::Json::object();
  params.set("t_iter", obs::Json::number(p_.t_iter))
      .set("t_refine", obs::Json::number(p_.t_refine))
      .set("t_lat", obs::Json::number(p_.t_lat))
      .set("t_setup", obs::Json::number(p_.t_setup))
      .set("bytes_per_element",
           obs::Json::number(CostModel(p_).move_bytes_per_element()))
      .set("bytes_per_set", obs::Json::number(p_.bytes_per_set))
      .set("gate_margin", obs::Json::number(p_.gate_margin));
  doc.set("params", std::move(params));
  if (!weight_scale_.empty()) {
    obs::Json ws = obs::Json::array();
    for (double f : weight_scale_) ws.push(obs::Json::number(f));
    doc.set("rank_weight_scale", std::move(ws));
  }
  return doc;
}

}  // namespace plum::sim
