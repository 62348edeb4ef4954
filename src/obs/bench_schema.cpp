#include "obs/bench_schema.hpp"

#include <map>
#include <utility>

#include "obs/memory.hpp"

namespace plum::obs {

namespace {

std::string run_error(std::size_t i, const std::string& what) {
  return "runs[" + std::to_string(i) + "]: " + what;
}

bool is_int_matrix(const Json& m, std::int64_t nranks) {
  if (!m.is_array() || static_cast<std::int64_t>(m.size()) != nranks) {
    return false;
  }
  for (std::size_t r = 0; r < m.size(); ++r) {
    const Json& row = m.at(r);
    if (!row.is_array() || static_cast<std::int64_t>(row.size()) != nranks) {
      return false;
    }
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (row.at(c).kind() != Json::Kind::kInt || row.at(c).as_int() < 0) {
        return false;
      }
    }
  }
  return true;
}

std::string check_comm_matrix(const Json& cm, std::size_t i) {
  if (!cm.is_object()) return run_error(i, "\"comm_matrix\" is not an object");
  const Json* nranks = cm.find("nranks");
  if (!nranks || nranks->kind() != Json::Kind::kInt || nranks->as_int() < 1) {
    return run_error(i, "comm_matrix field \"nranks\" must be an int >= 1");
  }
  for (const char* field : {"msgs", "bytes"}) {
    const Json* m = cm.find(field);
    if (!m || !is_int_matrix(*m, nranks->as_int())) {
      return run_error(i, "comm_matrix field \"" + std::string(field) +
                              "\" must be an nranks x nranks matrix of "
                              "non-negative ints");
    }
  }
  return "";
}

std::string check_gate_audit(const Json& ga, std::size_t i) {
  if (!ga.is_array()) return run_error(i, "\"gate_audit\" is not an array");
  for (std::size_t k = 0; k < ga.size(); ++k) {
    const Json& rec = ga.at(k);
    const std::string where = "gate_audit[" + std::to_string(k) + "]";
    if (!rec.is_object()) return run_error(i, where + " is not an object");
    const Json* cycle = rec.find("cycle");
    if (!cycle || cycle->kind() != Json::Kind::kInt || cycle->as_int() < 0) {
      return run_error(i, where + " field \"cycle\" must be an int >= 0");
    }
    for (const char* field : {"evaluated", "accepted"}) {
      const Json* v = rec.find(field);
      if (!v || v->kind() != Json::Kind::kBool) {
        return run_error(i, where + " missing bool field \"" +
                                std::string(field) + "\"");
      }
    }
    const Json* metric = rec.find("metric");
    if (!metric || !metric->is_string()) {
      return run_error(i, where + " missing string field \"metric\"");
    }
    for (const char* field :
         {"imbalance_old", "imbalance_new", "gain_s", "cost_s", "drift"}) {
      const Json* v = rec.find(field);
      if (!v || !v->is_number()) {
        return run_error(i, where + " missing numeric field \"" +
                                std::string(field) + "\"");
      }
    }
    for (const char* field : {"predicted_move_bytes", "measured_move_bytes"}) {
      const Json* v = rec.find(field);
      if (!v || v->kind() != Json::Kind::kInt || v->as_int() < 0) {
        return run_error(i, where + " field \"" + std::string(field) +
                                "\" must be an int >= 0");
      }
    }
    // The priced C and N (moved_elems / moved_sets) are optional so older
    // producers keep validating, but must be counts when present.
    for (const char* field : {"moved_elems", "moved_sets"}) {
      if (const Json* v = rec.find(field)) {
        if (v->kind() != Json::Kind::kInt || v->as_int() < 0) {
          return run_error(i, where + " field \"" + std::string(field) +
                                  "\" must be an int >= 0");
        }
      }
    }
  }
  return "";
}

/// Histogram metric objects, as rendered by MetricsRegistry::to_json().
std::string check_histogram(const Json& h, std::size_t i,
                            const std::string& name) {
  const auto bad = [&](const std::string& what) {
    return run_error(i, "histogram metric \"" + name + "\" " + what);
  };
  const Json* marker = h.find("histogram");
  if (!marker || marker->kind() != Json::Kind::kBool || !marker->as_bool()) {
    return bad("must carry \"histogram\": true");
  }
  const Json* wall = h.find("wall");
  if (!wall || wall->kind() != Json::Kind::kBool) {
    return bad("missing bool field \"wall\"");
  }
  const Json* count = h.find("count");
  if (!count || count->kind() != Json::Kind::kInt || count->as_int() < 0) {
    return bad("field \"count\" must be an int >= 0");
  }
  for (const char* field : {"max", "p50", "p95"}) {
    const Json* v = h.find(field);
    if (!v || !v->is_number()) {
      return bad("missing numeric field \"" + std::string(field) + "\"");
    }
  }
  const Json* bounds = h.find("bounds");
  if (!bounds || !bounds->is_array() || bounds->size() == 0) {
    return bad("missing non-empty array field \"bounds\"");
  }
  for (std::size_t k = 0; k < bounds->size(); ++k) {
    if (!bounds->at(k).is_number()) return bad("has a non-number bound");
  }
  const Json* counts = h.find("counts");
  if (!counts || !counts->is_array() ||
      counts->size() != bounds->size() + 1) {
    return bad("field \"counts\" must be an array of bounds+1 buckets");
  }
  for (std::size_t k = 0; k < counts->size(); ++k) {
    if (counts->at(k).kind() != Json::Kind::kInt ||
        counts->at(k).as_int() < 0) {
      return bad("has a bucket count that is not an int >= 0");
    }
  }
  return "";
}

/// Wall-marked series objects, as rendered by MetricsRegistry::to_json()
/// for add_wall_sample() gauges.
std::string check_series_object(const Json& s, std::size_t i,
                                const std::string& name) {
  const auto bad = [&](const std::string& what) {
    return run_error(i, "series metric \"" + name + "\" " + what);
  };
  const Json* marker = s.find("series");
  if (!marker || marker->kind() != Json::Kind::kBool || !marker->as_bool()) {
    return bad("must carry \"series\": true");
  }
  const Json* wall = s.find("wall");
  if (!wall || wall->kind() != Json::Kind::kBool) {
    return bad("missing bool field \"wall\"");
  }
  const Json* samples = s.find("samples");
  if (!samples || !samples->is_array()) {
    return bad("missing array field \"samples\"");
  }
  for (std::size_t k = 0; k < samples->size(); ++k) {
    if (!samples->at(k).is_number()) {
      return bad("contains a non-number sample");
    }
  }
  return "";
}

/// Per-run critical-path section (obs::CriticalPathAnalysis::to_json()).
std::string check_critical_path(const Json& cp, std::size_t i) {
  if (!cp.is_object()) {
    return run_error(i, "\"critical_path\" is not an object");
  }
  for (const char* field :
       {"critical_total", "busy_total", "wait_total", "wait_fraction"}) {
    const Json* v = cp.find(field);
    if (!v || !v->is_number()) {
      return run_error(i, "critical_path missing numeric field \"" +
                              std::string(field) + "\"");
    }
  }
  for (const char* field : {"ranks", "phases", "steps"}) {
    const Json* v = cp.find(field);
    if (!v || !v->is_array()) {
      return run_error(i, "critical_path missing array field \"" +
                              std::string(field) + "\"");
    }
  }
  return "";
}

/// Per-run tag-class traffic (obs::run_entry's "comm_by_class").
std::string check_comm_by_class(const Json& bc, std::size_t i) {
  if (!bc.is_object()) {
    return run_error(i, "\"comm_by_class\" is not an object");
  }
  for (const auto& [cls, t] : bc.items()) {
    for (const char* field : {"msgs", "bytes"}) {
      const Json* v = t.find(field);
      if (!v || v->kind() != Json::Kind::kInt || v->as_int() < 0) {
        return run_error(i, "comm_by_class \"" + cls + "\" field \"" +
                                field + "\" must be an int >= 0");
      }
    }
  }
  return "";
}

std::string check_run(const Json& run, std::size_t i) {
  if (!run.is_object()) return run_error(i, "not an object");

  const Json* c = run.find("case");
  if (!c || !c->is_string() || c->as_string().empty()) {
    return run_error(i, "missing or empty string field \"case\"");
  }

  const Json* p = run.find("P");
  if (!p || p->kind() != Json::Kind::kInt || p->as_int() < 1) {
    return run_error(i, "field \"P\" must be an integer >= 1");
  }

  const Json* metrics = run.find("metrics");
  if (!metrics || !metrics->is_object()) {
    return run_error(i, "missing object field \"metrics\"");
  }
  for (const auto& [name, value] : metrics->items()) {
    if (value.is_number()) continue;
    // Gauge series: arrays of numbers.
    if (value.is_array()) {
      for (std::size_t k = 0; k < value.size(); ++k) {
        if (!value.at(k).is_number()) {
          return run_error(i, "metric \"" + name +
                                  "\" series contains a non-number sample");
        }
      }
      continue;
    }
    // Fixed-bound histogram objects and wall-marked series objects.
    if (value.is_object()) {
      const std::string err = value.find("series") != nullptr
                                  ? check_series_object(value, i, name)
                                  : check_histogram(value, i, name);
      if (!err.empty()) return err;
      continue;
    }
    return run_error(i, "metric \"" + name + "\" is not a number");
  }

  const Json* phases = run.find("phases");
  if (!phases || !phases->is_array()) {
    return run_error(i, "missing array field \"phases\"");
  }
  for (std::size_t k = 0; k < phases->size(); ++k) {
    const Json& ph = phases->at(k);
    const std::string where = "phases[" + std::to_string(k) + "]";
    if (!ph.is_object()) return run_error(i, where + " is not an object");
    const Json* name = ph.find("name");
    if (!name || !name->is_string() || name->as_string().empty()) {
      return run_error(i, where + " missing string field \"name\"");
    }
    for (const char* field : {"wall_s", "modeled_s"}) {
      const Json* v = ph.find(field);
      if (!v || !v->is_number()) {
        return run_error(i, where + " missing numeric field \"" +
                                std::string(field) + "\"");
      }
    }
    const Json* ss = ph.find("supersteps");
    if (!ss || ss->kind() != Json::Kind::kInt || ss->as_int() < 0) {
      return run_error(i,
                       where + " field \"supersteps\" must be an int >= 0");
    }
    // Optional: the wall seconds of the phase's supersteps.
    const Json* sw = ph.find("superstep_s");
    if (sw && (!sw->is_number() || sw->as_double() < 0)) {
      return run_error(i,
                       where + " field \"superstep_s\" must be a number >= 0");
    }
  }

  if (const Json* cm = run.find("comm_matrix")) {
    const std::string err = check_comm_matrix(*cm, i);
    if (!err.empty()) return err;
  }
  if (const Json* ga = run.find("gate_audit")) {
    const std::string err = check_gate_audit(*ga, i);
    if (!err.empty()) return err;
  }
  if (const Json* cp = run.find("critical_path")) {
    const std::string err = check_critical_path(*cp, i);
    if (!err.empty()) return err;
  }
  if (const Json* heap = run.find("heap")) {
    const std::string err = validate_heap_section(*heap);
    if (!err.empty()) return run_error(i, err);
  }
  if (const Json* bc = run.find("comm_by_class")) {
    const std::string err = check_comm_by_class(*bc, i);
    if (!err.empty()) return err;
  }
  return "";
}

}  // namespace

std::string validate_bench_report(const Json& doc) {
  if (!doc.is_object()) return "top-level value is not an object";

  const Json* schema = doc.find("schema");
  if (!schema || !schema->is_string()) {
    return "missing string field \"schema\"";
  }
  if (schema->as_string() != "plum-bench/3") {
    return "unknown schema \"" + schema->as_string() +
           "\" (expected \"plum-bench/3\")";
  }

  const Json* bench = doc.find("bench");
  if (!bench || !bench->is_string() || bench->as_string().empty()) {
    return "missing or empty string field \"bench\"";
  }

  const Json* runs = doc.find("runs");
  if (!runs || !runs->is_array()) return "missing array field \"runs\"";
  if (runs->size() == 0) return "\"runs\" is empty";

  // Consumers pair runs by (case, P): a repeated pair would leave all but
  // one of its runs unread.
  std::map<std::pair<std::string, std::int64_t>, std::size_t> first_run;
  for (std::size_t i = 0; i < runs->size(); ++i) {
    const Json& run = runs->at(i);
    const std::string err = check_run(run, i);
    if (!err.empty()) return err;
    const auto [it, fresh] = first_run.try_emplace(
        {run.find("case")->as_string(), run.find("P")->as_int()}, i);
    if (!fresh) {
      return run_error(i, "repeats the (case, P) of runs[" +
                              std::to_string(it->second) + "]");
    }
  }
  return "";
}

}  // namespace plum::obs
