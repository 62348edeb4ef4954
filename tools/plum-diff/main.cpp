// plum-diff: the bench regression gate. Compares two plum-bench/3
// run documents (or two directories of BENCH_*.json files) metric by metric,
// prints a delta table, and exits nonzero when a deterministic metric
// drifts past its threshold.
//
//   plum-diff bench/baselines bench-json            # CI gate (dir mode)
//   plum-diff old/BENCH_fig4.json new/BENCH_fig4.json
//   plum-diff --tol refine_work_imbalance=0.05 base.json cur.json
//
// Deterministic integers must match exactly; deterministic doubles get a
// relative tolerance (--rel-tol, default 1e-9, per-metric --tol name=X).
// Wall-clock values (wall_s, *_seconds, histograms with "wall": true) are
// shown in the table but never gate — see diff.hpp for the full contract.
//
// Exit status: 0 = no breach, 1 = breach, 2 = usage/IO/parse error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "diff.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: plum-diff [--rel-tol X] [--tol metric=X ...] "
      "<baseline.json|dir> <current.json|dir>\n");
  return 2;
}

bool parse_tol(const char* arg, std::string* name, double* value) {
  const char* eq = std::strchr(arg, '=');
  if (!eq || eq == arg) return false;
  name->assign(arg, static_cast<std::size_t>(eq - arg));
  char* end = nullptr;
  *value = std::strtod(eq + 1, &end);
  return end && *end == '\0' && *value >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  plum::diff::Options opt;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--rel-tol") == 0 && i + 1 < argc) {
      char* end = nullptr;
      opt.rel_tol = std::strtod(argv[++i], &end);
      if (!end || *end != '\0' || opt.rel_tol < 0) return usage();
    } else if (std::strcmp(arg, "--tol") == 0 && i + 1 < argc) {
      std::string name;
      double value = 0;
      if (!parse_tol(argv[++i], &name, &value)) return usage();
      opt.metric_tol[name] = value;
    } else if (arg[0] == '-') {
      return usage();
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.size() != 2) return usage();

  std::error_code ec;
  const bool dir_mode = std::filesystem::is_directory(paths[0], ec);
  const plum::diff::DiffResult result =
      dir_mode ? plum::diff::diff_dirs(paths[0], paths[1], opt)
               : plum::diff::diff_files(paths[0], paths[1], opt);

  plum::diff::print_delta_table(result, stdout);
  const int status = plum::diff::exit_status(result);
  if (status == 1) {
    std::fprintf(stderr,
                 "plum-diff: FAIL: %d metric breach(es) vs %s\n"
                 "  (intentional change? regenerate baselines with "
                 "tools/regen_baselines.sh and commit them)\n",
                 result.breaches, paths[0].c_str());
  }
  return status;
}
