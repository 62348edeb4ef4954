// check_bench_json: CI gate for the documents a bench run leaves behind.
//
//   check_bench_json BENCH_bench_distributed.json [scope.ndjson ...]
//
// Each file must parse as strict JSON and validate as one of three kinds:
//   plum-bench/3      — BENCH_<bench>.json run documents,
//                       obs::validate_bench_report (the same validator the
//                       unit tests exercise, so the gate and the tests cannot
//                       drift); see src/obs/bench_schema.hpp.
//   plum-postmortem/1 — crash dumps written by the plum-scope abort hook
//                       (obs::validate_postmortem).
//   plum-scope/1      — live run streams: NDJSON, one record per cycle. A
//                       file that fails whole-document parsing is retried
//                       line by line; every line must validate
//                       (obs::validate_scope_record).
// Exit code 0 iff every file is valid; each failure is reported on stderr.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/bench_schema.hpp"
#include "obs/json.hpp"
#include "obs/scope.hpp"

namespace {

using plum::obs::Json;

/// NDJSON validation of a plum-scope/1 stream: every non-empty line must
/// parse and validate as one record. Returns the record count via *records;
/// "" when valid.
std::string validate_scope_stream(const std::string& text,
                                  std::size_t* records) {
  *records = 0;
  std::istringstream lines(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.empty()) continue;
    Json rec;
    std::string err;
    if (!Json::parse(line, &rec, &err)) {
      return "line " + std::to_string(lineno) + ": parse error: " + err;
    }
    err = plum::obs::validate_scope_record(rec);
    if (!err.empty()) {
      return "line " + std::to_string(lineno) + ": " + err;
    }
    ++*records;
  }
  if (*records == 0) return "no records";
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <BENCH_*.json|stream.ndjson>...\n",
                 argv[0]);
    return 2;
  }

  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    const char* path = argv[i];
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", path);
      ++failures;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    Json doc;
    std::string err;
    if (!Json::parse(buf.str(), &doc, &err)) {
      // A multi-line plum-scope/1 stream is NDJSON, not one document: fall
      // back to per-line validation before giving up.
      std::size_t records = 0;
      const std::string stream_err =
          validate_scope_stream(buf.str(), &records);
      if (stream_err.empty()) {
        std::printf("%s: ok (plum-scope/1 stream, %zu records)\n", path,
                    records);
        continue;
      }
      std::fprintf(stderr, "%s: parse error: %s (scope-stream retry: %s)\n",
                   path, err.c_str(), stream_err.c_str());
      ++failures;
      continue;
    }

    const Json* schema = doc.is_object() ? doc.find("schema") : nullptr;
    if (schema != nullptr && schema->is_string() &&
        schema->as_string() == "plum-postmortem/1") {
      err = plum::obs::validate_postmortem(doc);
      if (!err.empty()) {
        std::fprintf(stderr, "%s: schema violation: %s\n", path, err.c_str());
        ++failures;
        continue;
      }
      std::printf("%s: ok (plum-postmortem/1, run \"%s\")\n", path,
                  doc.find("name")->as_string().c_str());
      continue;
    }

    if (schema != nullptr && schema->is_string() &&
        schema->as_string() == "plum-scope/1") {
      // Single-record stream that happened to parse as one document.
      err = plum::obs::validate_scope_record(doc);
      if (!err.empty()) {
        std::fprintf(stderr, "%s: schema violation: %s\n", path, err.c_str());
        ++failures;
        continue;
      }
      std::printf("%s: ok (plum-scope/1 stream, 1 record)\n", path);
      continue;
    }

    err = plum::obs::validate_bench_report(doc);
    if (!err.empty()) {
      std::fprintf(stderr, "%s: schema violation: %s\n", path, err.c_str());
      ++failures;
      continue;
    }
    const std::size_t runs = doc.find("runs")->size();
    std::printf("%s: ok (%zu runs, bench \"%s\")\n", path, runs,
                doc.find("bench")->as_string().c_str());
  }
  return failures == 0 ? 0 : 1;
}
