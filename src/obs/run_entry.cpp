#include "obs/run_entry.hpp"

#include <algorithm>
#include <map>

#include "obs/critical_path.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/collectives.hpp"

namespace plum::obs {

namespace {

void set_stats(Json& j, const MemStats& s) {
  j.set("allocs", Json::integer(s.allocs))
      .set("frees", Json::integer(s.frees))
      .set("bytes", Json::integer(s.bytes_requested))
      .set("peak_live", Json::integer(s.peak_live_bytes));
}

/// One phase's counters over every row (ranks and host); rows peak
/// independently, so the peak is the largest row peak.
MemStats phase_total(const MemoryTracker& mem, std::int32_t phase) {
  MemStats t;
  for (int row = 0; row <= static_cast<int>(mem.nranks()); ++row) {
    const MemStats s = mem.stats(row, phase);
    t.allocs += s.allocs;
    t.frees += s.frees;
    t.bytes_requested += s.bytes_requested;
    t.peak_live_bytes = std::max(t.peak_live_bytes, s.peak_live_bytes);
  }
  return t;
}

Json heap_json(const MemoryTracker& mem, bool wall) {
  Json phases = Json::array();
  const auto& names = mem.phase_names();
  for (std::size_t p = 0; p < names.size(); ++p) {
    Json ph = Json::object();
    ph.set("name", Json::str(names[p]));
    set_stats(ph, phase_total(mem, static_cast<std::int32_t>(p)));
    phases.push(std::move(ph));
  }
  Json unphased = Json::object();
  set_stats(unphased, phase_total(mem, -1));
  Json heap = Json::object();
  heap.set("phases", std::move(phases))
      .set("unphased", std::move(unphased))
      .set("live_bytes", Json::integer(mem.total_live_bytes()));
  if (wall) heap.set("rss", rss_json());
  return heap;
}

Json comm_by_class_json(const rt::Ledger& ledger) {
  struct Totals {
    std::int64_t msgs = 0;
    std::int64_t bytes = 0;
  };
  std::map<std::string, Totals> by_class;
  for (const auto& step : ledger.steps) {
    for (const auto& c : step) {
      for (const auto& cell : c.sends) {
        Totals& t = by_class[tag_class_name(cell.tag)];
        t.msgs += cell.msgs;
        t.bytes += cell.bytes;
      }
    }
  }
  Json out = Json::object();
  for (const auto& [cls, t] : by_class) {
    Json entry = Json::object();
    entry.set("msgs", Json::integer(t.msgs))
        .set("bytes", Json::integer(t.bytes));
    out.set(cls, std::move(entry));
  }
  return out;
}

}  // namespace

Json run_entry(const TraceRecorder& trace, const MetricsRegistry& metrics,
               const MemoryTracker& mem, const rt::Ledger* ledger,
               bool wall) {
  Json phases = Json::array();
  for (const PhaseRecord& ph : trace.phases()) {
    Json p = Json::object();
    p.set("name", Json::str(ph.name));
    if (wall) {
      p.set("wall_s", Json::number(ph.wall_s))
          .set("superstep_s", Json::number(ph.superstep_s));
    }
    p.set("modeled_s", Json::number(ph.modeled_s))
        .set("supersteps", Json::integer(ph.supersteps))
        .set("depth", Json::integer(ph.depth))
        .set("compute_units", Json::integer(ph.compute_units))
        .set("msgs_sent", Json::integer(ph.msgs_sent))
        .set("bytes_sent", Json::integer(ph.bytes_sent));
    phases.push(std::move(p));
  }

  Json entry = Json::object();
  entry.set("metrics", wall ? metrics.to_json() : metrics.deterministic_json())
      .set("phases", std::move(phases))
      .set("critical_path", analyze_critical_path(trace).to_json())
      .set("gate_audit", gate_audit_json(trace.gate_records()))
      .set("heap", heap_json(mem, wall));
  if (ledger != nullptr) entry.set("comm_by_class", comm_by_class_json(*ledger));
  return entry;
}

std::string tag_class_name(int tag) {
  // Keep in sync with the tag conventions of the sending subsystems:
  // pmesh/migrate.cpp (packs) + pmesh/finalize.cpp use tag 0 for bulk
  // payloads, pmesh/parallel_adapt.cpp uses 1..3,
  // solver/parallel_solver.cpp 11/12 and 111 (metric reply), and
  // pmesh/migrate.cpp's SPL directory 21/22.
  if (tag == rt::detail::kCollectiveTag) return "collective";
  if (tag == 0) return "bulk";
  if (tag >= 1 && tag <= 3) return "adapt";
  if (tag == 11 || tag == 12 || tag == 111) return "solver";
  if (tag == 21 || tag == 22) return "directory";
  return "tag" + std::to_string(tag);
}

Json comm_matrix_json(const rt::CommMatrix& m) {
  Json j = Json::object();
  j.set("nranks", Json::integer(m.nranks));
  Json msgs = Json::array();
  Json bytes = Json::array();
  for (Rank from = 0; from < m.nranks; ++from) {
    Json mrow = Json::array();
    Json brow = Json::array();
    for (Rank to = 0; to < m.nranks; ++to) {
      mrow.push(Json::integer(m.msgs_at(from, to)));
      brow.push(Json::integer(m.bytes_at(from, to)));
    }
    msgs.push(std::move(mrow));
    bytes.push(std::move(brow));
  }
  j.set("msgs", std::move(msgs)).set("bytes", std::move(bytes));
  return j;
}

}  // namespace plum::obs
