#include "obs/memory.hpp"

#include "obs/json.hpp"
#include "util/rss.hpp"

namespace plum::obs {

namespace {

bool is_count(const Json* v) {
  return v != nullptr && v->kind() == Json::Kind::kInt && v->as_int() >= 0;
}

std::string check_stats(const Json& s, const std::string& where) {
  if (!s.is_object()) return where + ": not an object";
  for (const char* key : {"allocs", "frees", "bytes", "peak_live"}) {
    if (!is_count(s.find(key))) {
      return where + ": \"" + key + "\" must be an int >= 0";
    }
  }
  return "";
}

}  // namespace

Json rss_json() {
  const util::RssSample rss = util::read_rss();
  Json j = Json::object();
  j.set("vm_rss_bytes", Json::integer(rss.vm_rss_bytes));
  j.set("vm_hwm_bytes", Json::integer(rss.vm_hwm_bytes));
  return j;
}

std::string validate_heap_section(const Json& heap) {
  if (!heap.is_object()) return "heap: not an object";
  const Json* phases = heap.find("phases");
  if (phases == nullptr || !phases->is_array()) {
    return "heap: missing \"phases\" array";
  }
  for (std::size_t i = 0; i < phases->size(); ++i) {
    const Json& ph = phases->at(i);
    const Json* name = ph.find("name");
    if (name == nullptr || !name->is_string()) {
      return "heap: phase without a string \"name\"";
    }
    const std::string err =
        check_stats(ph, "heap: phase \"" + name->as_string() + "\"");
    if (!err.empty()) return err;
  }
  const Json* unphased = heap.find("unphased");
  if (unphased == nullptr) return "heap: missing \"unphased\"";
  const std::string err = check_stats(*unphased, "heap: unphased");
  if (!err.empty()) return err;
  const Json* live = heap.find("live_bytes");
  if (live == nullptr || live->kind() != Json::Kind::kInt) {
    return "heap: missing int \"live_bytes\"";
  }
  if (const Json* rss = heap.find("rss")) {
    if (!rss->is_object()) return "heap: \"rss\" is not an object";
    for (const char* key : {"vm_rss_bytes", "vm_hwm_bytes"}) {
      if (!is_count(rss->find(key))) {
        return std::string("heap: rss \"") + key + "\" must be an int >= 0";
      }
    }
  }
  return "";
}

}  // namespace plum::obs
