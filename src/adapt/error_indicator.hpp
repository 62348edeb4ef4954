#pragma once
// Per-edge error indicators computed from a vertex solution field, and the
// threshold machinery that turns them into refinement / coarsening targets
// (paper §3: "edges whose error values exceed a specified upper threshold
// are targeted for subdivision; edges whose error values lie below another
// lower threshold are targeted for removal").

#include <vector>

#include "mesh/tet_mesh.hpp"

namespace plum::adapt {

/// err(e) = |u(v1) - u(v0)| * length(e)^length_power over active edges
/// (0 elsewhere). length_power=1 biases toward long under-resolved edges.
std::vector<double> edge_error(const mesh::TetMesh& mesh,
                               const std::vector<double>& vertex_field,
                               double length_power = 1.0);

/// Refinement marks from an absolute upper threshold.
std::vector<char> mark_above(const mesh::TetMesh& mesh,
                             const std::vector<double>& err, double upper);

/// Coarsening marks from an absolute lower threshold.
std::vector<char> mark_below(const mesh::TetMesh& mesh,
                             const std::vector<double>& err, double lower);

/// Marks the top `fraction` of active edges by error — how the paper's
/// Real_1/2/3 strategies target 5%, 33% and 60% of the initial edges.
/// Deterministic tie-break by edge id.
std::vector<char> mark_top_fraction(const mesh::TetMesh& mesh,
                                    const std::vector<double>& err,
                                    double fraction);

/// err restricted to the active edges, in edge order.
std::vector<double> active_values(const mesh::TetMesh& mesh,
                                  const std::vector<double>& err);

/// The marking rule both framework drivers share. `values` holds the error
/// of every active edge exactly once; mark_above(refine_threshold(...))
/// targets the edges strictly above the (floor(fraction * n) + 1)-th
/// largest value, i.e. at most floor(fraction * n) edges, leaving ties at
/// the cut unmarked. The cut depends on the values only, never on edge
/// numbering, so a distributed run (each rank contributing the edges it
/// owns) marks exactly the edges a single-address-space run marks. Returns
/// +max when the fraction selects no edge.
double refine_threshold(std::vector<double> values, double fraction);

/// The rule for coarsening: mark_below(coarsen_threshold(...)) targets the
/// floor(fraction * n) lowest-error edges plus every edge tied with the
/// last of them, so a quiet region of equal (e.g. zero) error coarsens as
/// a whole. Returns lowest() when the fraction selects no edge.
double coarsen_threshold(std::vector<double> values, double fraction);

}  // namespace plum::adapt
