#pragma once
// plum-scale: project-wide replicated-state & scalability analyzer. Where
// plum-lint judges one superstep lambda at a time, plum-scale runs over
// the SymbolIndex (index.hpp) so it can reason across files. Four checks:
//
//   dense-rank-container   a container sized by a rank count — `resize(
//                          nranks)`, `assign(P * P, ..)`, `vector<T> x(
//                          world_size)` — allocates O(P) (or O(P^2) for
//                          rank-count products) resident state. Every such
//                          site must carry a scaling annotation: either it
//                          is deliberate distributed state (`dist(P)`) or
//                          it lives on the host side of the barrier only
//                          (`host-only`).
//   replicated-global-state
//                          a struct held once per rank (it appears as the
//                          element of some vector<S> anywhere in the
//                          project) with a field keyed by global mesh
//                          Index (std::map<Index,..> / SplMap / ...):
//                          aggregate memory is P × global mesh — the
//                          classic replicated-state scaling bug the PLUM
//                          paper's partitioning exists to avoid.
//   interprocedural-superstep-mutation
//                          a helper function whose one-level summary says
//                          it writes through a non-const-ref parameter,
//                          called from a superstep lambda with a captured,
//                          non-rank-indexed argument in that position —
//                          the same shared-accumulator bug plum-lint
//                          catches for direct writes, but hidden behind a
//                          call (possibly into another file).
//   all-ranks-send         a `for` loop bounded by a rank count (`q < P`,
//                          `q < eng.nranks()`) inside a superstep lambda
//                          whose body sends to the loop variable, guarded
//                          by `!empty()` or not: all-to-all traffic or a
//                          P-sized staging walk per rank, O(P^2) per
//                          superstep. Send to SPL peers (pmesh::PeerBuckets)
//                          or to a root instead; only allow() suppresses it.
//
// Annotations (the scaling contract, see DESIGN.md):
//   // plum-scale: dist(P) -- <why this state is deliberately per-rank>
//   // plum-scale: host-only -- <why this runs outside superstep ranks>
//   // plum-scale: scratch -- <why this is phase-local arena scratch>
//   // plum-scale: allow(<check>) -- <justification>
// on the same line or the line directly above the diagnostic. dist(P),
// host-only, and scratch acknowledge dense-rank-container /
// replicated-global-state hits; allow() suppresses the named check.
// scratch additionally marks plum-mem arena-backed containers (reclaimed
// wholesale at cycle reset) and is declarative: unlike the suppression
// kinds it is never reported unused, so it can document scratch
// containers the checks have nothing to say about. A missing
// justification or an unknown check is a bad-annotation diagnostic; a
// dist/host-only/allow annotation matching nothing is flagged
// unused-annotation. Meta diagnostics are unsuppressable.

#include <string>
#include <vector>

#include "index.hpp"
#include "linter.hpp"

namespace plumlint {

/// The four scaling checks plus the two meta checks, in report order.
const std::vector<CheckInfo>& scale_checks();

/// Analyzes the files as one project: builds the symbol index, then runs
/// the four checks and applies annotations. Diagnostics are sorted.
LintResult scale_files(const std::vector<FileInput>& files);

/// As above but over a prebuilt index (tests that probe index/check
/// interaction separately).
LintResult scale_files(const std::vector<FileInput>& files,
                       const SymbolIndex& index);

/// Convenience wrapper for one in-memory source.
LintResult scale_source(const std::string& path, const std::string& content);

}  // namespace plumlint
