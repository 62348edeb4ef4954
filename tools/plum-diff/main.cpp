// plum-diff: the bench regression gate. Compares two plum-bench/3
// run documents (or two directories of BENCH_*.json files) value by value,
// prints a delta table, and exits nonzero when a deterministic value
// drifts.
//
//   plum-diff bench/baselines bench-json            # CI gate (dir mode)
//   plum-diff old/BENCH_fig4.json new/BENCH_fig4.json
//
// Deterministic integers, strings and booleans must match exactly and
// doubles within a relative 1e-9; a key, element or run present on one
// side only breaches. Wall-clock values (wall_s, superstep_s, *_seconds,
// objects flagged "wall": true) are shown in the table but never gate —
// see diff.hpp for the full contract.
//
// Exit status: 0 = no breach, 1 = breach, 2 = usage/IO/parse error.

#include <cstdio>
#include <filesystem>
#include <string>

#include "diff.hpp"

int main(int argc, char** argv) {
  if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-') {
    std::fprintf(stderr,
                 "usage: plum-diff <baseline.json|dir> <current.json|dir>\n");
    return 2;
  }
  const std::string base = argv[1];
  const std::string cur = argv[2];

  std::error_code ec;
  const plum::diff::DiffResult result =
      std::filesystem::is_directory(base, ec)
          ? plum::diff::diff_dirs(base, cur)
          : plum::diff::diff_files(base, cur);

  plum::diff::print_delta_table(result, stdout);
  const int status = plum::diff::exit_status(result);
  if (status == 1) {
    std::fprintf(stderr,
                 "plum-diff: FAIL: %d breach(es) vs %s\n"
                 "  (intentional change? regenerate baselines with "
                 "tools/regen_baselines.sh and commit them)\n",
                 result.breaches, base.c_str());
  }
  return status;
}
