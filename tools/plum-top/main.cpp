// plum-top: top(1) for a PLUM run in progress.
//
//   plum-top scope.ndjson            # refresh until interrupted
//   plum-top --once scope.ndjson     # render the latest record and exit
//   plum-top --interval-ms 500 scope.ndjson
//
// Tails a "plum-scope/1" NDJSON stream (one record per adaption cycle,
// written by FrameworkOptions::scope_stream or
// `bench_distributed --scope-stream FILE`) and redraws a per-rank table:
// counter-sourced busy/wait per rank with a utilization bar, the cycle's
// gate verdict, imbalance, and element count. Only complete lines
// are consumed, and the writer appends whole lines (O_APPEND +
// EINTR-safe), so a mid-write read never renders a torn record.
//
// Exit status: 0 on a clean render, 1 when the stream never produced a
// valid record, 2 on usage errors.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <chrono>

#include "obs/json.hpp"
#include "obs/scope.hpp"

namespace {

using plum::obs::Json;

struct Cli {
  std::string path;
  bool once = false;
  int interval_ms = 1000;
};

bool parse_cli(int argc, char** argv, Cli* cli) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--once") == 0) {
      cli->once = true;
    } else if (std::strcmp(a, "--interval-ms") == 0 && i + 1 < argc) {
      cli->interval_ms = std::atoi(argv[++i]);
    } else if (std::strncmp(a, "--interval-ms=", 14) == 0) {
      cli->interval_ms = std::atoi(a + 14);
    } else if (a[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", a);
      return false;
    } else if (cli->path.empty()) {
      cli->path = a;
    } else {
      std::fprintf(stderr, "multiple stream files given\n");
      return false;
    }
  }
  if (cli->path.empty()) {
    std::fprintf(stderr,
                 "usage: plum-top [--once] [--interval-ms N] <scope.ndjson>\n");
    return false;
  }
  if (cli->interval_ms < 50) cli->interval_ms = 50;
  return true;
}

std::int64_t int_or(const Json* v, std::int64_t fallback) {
  return v && v->kind() == Json::Kind::kInt ? v->as_int() : fallback;
}

double num_or(const Json* v, double fallback) {
  if (!v || !v->is_number()) return fallback;
  return v->kind() == Json::Kind::kInt ? static_cast<double>(v->as_int())
                                       : v->as_double();
}

std::string str_or(const Json* v, const std::string& fallback) {
  return v && v->is_string() ? v->as_string() : fallback;
}

/// Latest complete record in the stream file, through the shared tail
/// parser (obs::latest_stream_record): kRecord fills *out; kPartial means
/// the only content is a torn/mid-write tail — skip this poll and retry;
/// kNone means no record bytes at all yet.
plum::obs::TailStatus latest_record(const std::string& path, Json* out) {
  std::ifstream in(path);
  if (!in) return plum::obs::TailStatus::kNone;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  return plum::obs::latest_stream_record(text, out);
}

std::string bar(double fraction, int width) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const int fill = static_cast<int>(fraction * width + 0.5);
  std::string s;
  for (int i = 0; i < width; ++i) s += i < fill ? '#' : '.';
  return s;
}

void render(const Json& rec, bool ansi) {
  if (ansi) std::printf("\x1b[H\x1b[2J");  // home + clear

  const Json* gate = rec.find("gate");
  const Json* ev = gate ? gate->find("evaluated") : nullptr;
  const Json* acc = gate ? gate->find("accepted") : nullptr;
  const bool evaluated =
      ev && ev->kind() == Json::Kind::kBool && ev->as_bool();
  const bool accepted =
      acc && acc->kind() == Json::Kind::kBool && acc->as_bool();

  std::printf("plum-top — %s   cycle %lld   %lld supersteps   %lld elements\n",
              str_or(rec.find("name"), "(unnamed)").c_str(),
              static_cast<long long>(int_or(rec.find("cycle"), 0)),
              static_cast<long long>(int_or(rec.find("supersteps"), 0)),
              static_cast<long long>(int_or(rec.find("elements"), 0)));
  std::printf("imbalance %.4f   gate %s   cycle wall %.3fs",
              num_or(rec.find("imbalance"), 0),
              !evaluated ? "skipped" : (accepted ? "ACCEPT" : "reject"),
              num_or(rec.find("wall_s"), 0));
  if (const Json* rss = rec.find("rss")) {
    std::printf("   rss %.1f MB (hwm %.1f MB)",
                static_cast<double>(int_or(rss->find("vm_rss_bytes"), 0)) /
                    1e6,
                static_cast<double>(int_or(rss->find("vm_hwm_bytes"), 0)) /
                    1e6);
  }
  std::printf("\n\n");

  const Json* ranks = rec.find("ranks");
  if (ranks && ranks->is_array() && ranks->size() > 0) {
    std::printf("%6s %12s %12s %6s  %s\n", "rank", "busy", "wait", "util",
                "utilization");
    for (std::size_t r = 0; r < ranks->size(); ++r) {
      const Json& rk = ranks->at(r);
      const std::int64_t busy = int_or(rk.find("busy"), 0);
      const std::int64_t wait = int_or(rk.find("wait"), 0);
      const double util =
          busy + wait > 0
              ? static_cast<double>(busy) / static_cast<double>(busy + wait)
              : 1.0;
      std::printf("%6lld %12lld %12lld %5.1f%%  [%s]\n",
                  static_cast<long long>(int_or(rk.find("rank"),
                                                static_cast<std::int64_t>(r))),
                  static_cast<long long>(busy), static_cast<long long>(wait),
                  100.0 * util, bar(util, 30).c_str());
    }
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_cli(argc, argv, &cli)) return 2;

  bool rendered = false;
  std::int64_t last_cycle = -1;
  // --once tolerates a torn tail (the writer is mid-append) by retrying a
  // few polls before concluding the stream has no record.
  int once_retries = 10;
  for (;;) {
    Json rec;
    const plum::obs::TailStatus st = latest_record(cli.path, &rec);
    if (st == plum::obs::TailStatus::kRecord) {
      const std::int64_t cycle = int_or(rec.find("cycle"), 0);
      if (!rendered || cycle != last_cycle) {
        render(rec, /*ansi=*/!cli.once && rendered);
        last_cycle = cycle;
        rendered = true;
      }
    } else if (cli.once) {
      if (st == plum::obs::TailStatus::kPartial && once_retries-- > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      std::fprintf(stderr, "%s: %s\n", cli.path.c_str(),
                   st == plum::obs::TailStatus::kPartial
                       ? "only a torn/partial trailing record"
                       : "no valid plum-scope/1 record");
      return 1;
    }
    // While tailing, kPartial/kNone just mean "not yet": skip and retry.
    if (cli.once) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(cli.interval_ms));
  }
  return rendered ? 0 : 1;
}
