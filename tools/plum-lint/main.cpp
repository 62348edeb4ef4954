// plum-lint CLI: lints the given files/directories and exits 0 only when
// no unsuppressed diagnostics remain. See linter.hpp for the check set and
// cli.hpp for the command line.

#include "cli.hpp"

int main(int argc, char** argv) {
  const plumlint::Tool tool{"plum-lint", plumlint::checks(), 22,
                            "unsuppressed", "suppressed",
                            &plumlint::lint_files};
  return plumlint::run_cli(tool, argc, argv);
}
