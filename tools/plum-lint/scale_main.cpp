// plum-scale CLI: project-wide replicated-state & scalability analysis.
// Indexes ALL given files together (symbol table first, checks second) and
// exits 0 only when no unannotated diagnostics remain. See scale.hpp for
// the checks and cli.hpp for the command line.

#include "cli.hpp"
#include "scale.hpp"

int main(int argc, char** argv) {
  const plumlint::Tool tool{
      "plum-scale", plumlint::scale_checks(), 36, "unannotated", "annotated",
      [](const std::vector<plumlint::FileInput>& files) {
        return plumlint::scale_files(files);
      }};
  return plumlint::run_cli(tool, argc, argv);
}
