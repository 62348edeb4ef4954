#include "obs/scope.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "util/assert.hpp"

namespace plum::obs {

namespace {

/// Writes all of `text` to the regular file `fd`, retrying on EINTR and
/// short writes. Returns false on any other error.
bool write_text(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t w = ::write(fd, text.data() + done, text.size() - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

// --- FlightRecorder -----------------------------------------------------------

FlightRecorder::FlightRecorder(Rank nranks, int capacity)
    : nranks_(nranks), capacity_(capacity) {
  PLUM_ASSERT(nranks >= 1);
  PLUM_ASSERT_MSG(capacity >= 1, "flight recorder ring needs capacity >= 1");
  // plum-scale: dist(P) -- one fixed-capacity event ring per simulated rank
  rings_.resize(static_cast<std::size_t>(nranks));
  for (auto& ring : rings_) {
    ring.slots.resize(static_cast<std::size_t>(capacity));
  }
}

void FlightRecorder::record_rank_step(int step, Rank rank,
                                      const rt::StepCounters& counters,
                                      std::int64_t wall_ns) {
  PLUM_ASSERT(rank >= 0 && rank < nranks_);
  RankRing& ring = rings_[static_cast<std::size_t>(rank)];
  ScopeEvent& slot =
      ring.slots[ring.written % static_cast<std::uint64_t>(capacity_)];
  slot.step = static_cast<std::int32_t>(step);
  slot.phase = current_phase_;
  slot.rank = rank;
  slot.ticks = counters.compute_units;
  slot.wall_ns = wall_ns;
  ++ring.written;
}

void FlightRecorder::set_phase(const std::string& name) {
  for (std::size_t i = 0; i < phase_names_.size(); ++i) {
    if (phase_names_[i] == name) {
      current_phase_ = static_cast<std::int32_t>(i);
      return;
    }
  }
  current_phase_ = static_cast<std::int32_t>(phase_names_.size());
  phase_names_.push_back(name);
}

void FlightRecorder::clear_phase() { current_phase_ = -1; }

std::uint64_t FlightRecorder::events_recorded(Rank r) const {
  PLUM_ASSERT(r >= 0 && r < nranks_);
  return rings_[static_cast<std::size_t>(r)].written;
}

std::vector<ScopeEvent> FlightRecorder::last_events(Rank r) const {
  PLUM_ASSERT(r >= 0 && r < nranks_);
  const RankRing& ring = rings_[static_cast<std::size_t>(r)];
  const auto cap = static_cast<std::uint64_t>(capacity_);
  const std::uint64_t n = ring.written < cap ? ring.written : cap;
  std::vector<ScopeEvent> out;
  out.reserve(static_cast<std::size_t>(n));
  // Oldest surviving event first: when the ring wrapped, that is the slot
  // the next write would overwrite.
  const std::uint64_t first = ring.written - n;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(ring.slots[(first + i) % cap]);
  }
  return out;
}

Json FlightRecorder::to_json_impl(bool include_wall) const {
  Json doc = Json::object();
  doc.set("capacity", Json::integer(capacity_))
      .set("nranks", Json::integer(nranks_));
  Json phases = Json::array();
  for (const auto& name : phase_names_) phases.push(Json::str(name));
  doc.set("phases", std::move(phases));
  Json ranks = Json::array();
  for (Rank r = 0; r < nranks_; ++r) {
    Json rec = Json::object();
    rec.set("rank", Json::integer(r))
        .set("written", Json::integer(static_cast<std::int64_t>(
                            events_recorded(r))));
    Json events = Json::array();
    for (const ScopeEvent& e : last_events(r)) {
      Json ev = Json::object();
      ev.set("step", Json::integer(e.step))
          .set("phase", Json::integer(e.phase))
          .set("ticks", Json::integer(e.ticks));
      if (include_wall) ev.set("wall_ns", Json::integer(e.wall_ns));
      events.push(std::move(ev));
    }
    rec.set("events", std::move(events));
    ranks.push(std::move(rec));
  }
  doc.set("ranks", std::move(ranks));
  return doc;
}

Json FlightRecorder::to_json() const { return to_json_impl(true); }

Json FlightRecorder::deterministic_json() const { return to_json_impl(false); }

// --- ScopeStreamWriter --------------------------------------------------------

ScopeStreamWriter::ScopeStreamWriter(const std::string& path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    std::fprintf(stderr, "plum-scope: cannot open stream file %s\n",
                 path.c_str());
  }
}

ScopeStreamWriter::~ScopeStreamWriter() {
  if (fd_ >= 0) ::close(fd_);
}

bool ScopeStreamWriter::append(const Json& record) {
  if (fd_ < 0) return false;
  std::string line = record.dump();
  line.push_back('\n');
  // With O_APPEND the line lands atomically enough for a single writer
  // that a tailing plum-top never parses a torn record.
  return write_text(fd_, line);
}

// --- postmortem ---------------------------------------------------------------

namespace {

PostmortemConfig& pm_config() {
  static PostmortemConfig cfg;
  return cfg;
}

void pm_hook(const plum::detail::AbortInfo& info) {
  const PostmortemConfig& cfg = pm_config();
  const Json doc =
      postmortem_json(cfg, info.expr, info.file, info.line, info.msg);
  const char* dir = std::getenv("PLUM_BENCH_JSON_DIR");
  std::string path = (dir && dir[0]) ? std::string(dir) : std::string(".");
  path += "/POSTMORTEM_" + cfg.name + ".json";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    std::fprintf(stderr, "plum-scope: cannot write postmortem %s\n",
                 path.c_str());
    return;
  }
  std::string text = doc.dump(2);
  text.push_back('\n');
  (void)write_text(fd, text);
  ::close(fd);
  std::fprintf(stderr, "plum-scope: postmortem written to %s\n", path.c_str());
}

}  // namespace

void install_postmortem(PostmortemConfig cfg) {
  pm_config() = std::move(cfg);
  plum::detail::set_abort_hook(&pm_hook);
}

void uninstall_postmortem(const FlightRecorder* owner) {
  if (pm_config().recorder != owner) return;
  pm_config() = PostmortemConfig{};
  plum::detail::set_abort_hook(nullptr);
}

Json postmortem_json(const PostmortemConfig& cfg, const char* expr,
                     const char* file, int line, const char* msg) {
  Json doc = Json::object();
  doc.set("schema", Json::str("plum-postmortem/1"))
      .set("name", Json::str(cfg.name));
  Json reason = Json::object();
  reason.set("expr", Json::str(expr ? expr : ""))
      .set("file", Json::str(file ? file : ""))
      .set("line", Json::integer(line))
      .set("msg", Json::str(msg ? msg : ""));
  doc.set("reason", std::move(reason));
  // Full (wall-included) ring view: a postmortem is forensic output, never
  // part of any deterministic comparison.
  if (cfg.recorder != nullptr) doc.set("scope", cfg.recorder->to_json());
  return doc;
}

// --- validators ---------------------------------------------------------------

std::string validate_postmortem(const Json& doc) {
  if (!doc.is_object()) return "top-level value is not an object";
  const Json* schema = doc.find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != "plum-postmortem/1") {
    return "schema must be \"plum-postmortem/1\"";
  }
  const Json* name = doc.find("name");
  if (!name || !name->is_string() || name->as_string().empty()) {
    return "missing or empty string field \"name\"";
  }
  const Json* reason = doc.find("reason");
  if (!reason || !reason->is_object()) {
    return "missing object field \"reason\"";
  }
  for (const char* field : {"expr", "file", "msg"}) {
    const Json* v = reason->find(field);
    if (!v || !v->is_string()) {
      return "reason missing string field \"" + std::string(field) + "\"";
    }
  }
  const Json* line = reason->find("line");
  if (!line || line->kind() != Json::Kind::kInt || line->as_int() < 0) {
    return "reason field \"line\" must be an int >= 0";
  }
  if (const Json* scope = doc.find("scope")) {
    if (!scope->is_object()) return "\"scope\" is not an object";
    for (const char* field : {"capacity", "nranks"}) {
      const Json* v = scope->find(field);
      if (!v || v->kind() != Json::Kind::kInt || v->as_int() < 1) {
        return "scope field \"" + std::string(field) +
               "\" must be an int >= 1";
      }
    }
    const Json* ranks = scope->find("ranks");
    if (!ranks || !ranks->is_array()) {
      return "scope missing array field \"ranks\"";
    }
    for (std::size_t r = 0; r < ranks->size(); ++r) {
      const Json& rec = ranks->at(r);
      const std::string where = "scope ranks[" + std::to_string(r) + "]";
      if (!rec.is_object()) return where + " is not an object";
      const Json* events = rec.find("events");
      if (!events || !events->is_array()) {
        return where + " missing array field \"events\"";
      }
      for (std::size_t k = 0; k < events->size(); ++k) {
        const Json& ev = events->at(k);
        if (!ev.is_object()) return where + " has a non-object event";
        for (const char* field : {"step", "phase", "ticks"}) {
          const Json* v = ev.find(field);
          if (!v || v->kind() != Json::Kind::kInt) {
            return where + " event missing int field \"" +
                   std::string(field) + "\"";
          }
        }
      }
    }
  }
  return "";
}

std::string validate_scope_record(const Json& doc) {
  if (!doc.is_object()) return "record is not an object";
  const Json* schema = doc.find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != "plum-scope/1") {
    return "schema must be \"plum-scope/1\"";
  }
  const Json* name = doc.find("name");
  if (!name || !name->is_string() || name->as_string().empty()) {
    return "missing or empty string field \"name\"";
  }
  for (const char* field : {"cycle", "supersteps", "elements"}) {
    const Json* v = doc.find(field);
    if (!v || v->kind() != Json::Kind::kInt || v->as_int() < 0) {
      return "field \"" + std::string(field) + "\" must be an int >= 0";
    }
  }
  const Json* imbalance = doc.find("imbalance");
  if (!imbalance || !imbalance->is_number()) {
    return "missing numeric field \"imbalance\"";
  }
  const Json* wall = doc.find("wall_s");
  if (!wall || !wall->is_number()) {
    return "missing numeric field \"wall_s\"";
  }
  const Json* gate = doc.find("gate");
  if (!gate || !gate->is_object()) return "missing object field \"gate\"";
  for (const char* field : {"evaluated", "accepted"}) {
    const Json* v = gate->find(field);
    if (!v || v->kind() != Json::Kind::kBool) {
      return "gate missing bool field \"" + std::string(field) + "\"";
    }
  }
  const Json* ranks = doc.find("ranks");
  if (!ranks || !ranks->is_array()) return "missing array field \"ranks\"";
  for (std::size_t r = 0; r < ranks->size(); ++r) {
    const Json& rec = ranks->at(r);
    const std::string where = "ranks[" + std::to_string(r) + "]";
    if (!rec.is_object()) return where + " is not an object";
    const Json* rank = rec.find("rank");
    if (!rank || rank->kind() != Json::Kind::kInt || rank->as_int() < 0) {
      return where + " field \"rank\" must be an int >= 0";
    }
    for (const char* field : {"busy", "wait"}) {
      const Json* v = rec.find(field);
      if (!v || v->kind() != Json::Kind::kInt || v->as_int() < 0) {
        return where + " field \"" + std::string(field) +
               "\" must be an int >= 0";
      }
    }
  }
  return "";
}

TailStatus latest_stream_record(std::string_view text, Json* out) {
  if (text.empty()) return TailStatus::kNone;
  bool saw_bytes = false;
  std::size_t end = text.size();
  // A tail without a trailing newline is a writer caught mid-append; skip
  // it (it will complete, or be superseded, by the next poll) but remember
  // that bytes exist so an all-torn stream reports kPartial, not kNone.
  if (text.back() != '\n') {
    const std::size_t nl = text.rfind('\n');
    saw_bytes = true;
    if (nl == std::string_view::npos) return TailStatus::kPartial;
    end = nl + 1;
  }
  while (end > 0) {
    std::size_t start = 0;
    if (end >= 2) {
      const std::size_t nl = text.rfind('\n', end - 2);
      if (nl != std::string_view::npos) start = nl + 1;
    }
    const std::string_view line = text.substr(start, end - 1 - start);
    if (!line.empty()) {
      saw_bytes = true;
      Json doc;
      std::string err;
      if (Json::parse(std::string(line), &doc, &err) &&
          validate_scope_record(doc).empty()) {
        *out = std::move(doc);
        return TailStatus::kRecord;
      }
      // Truncated or malformed line (crash mid-write, or a torn read that
      // happened to end on '\n'): fall through to older lines.
    }
    end = start;
  }
  return saw_bytes ? TailStatus::kPartial : TailStatus::kNone;
}

}  // namespace plum::obs
