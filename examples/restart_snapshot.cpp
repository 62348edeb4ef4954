// Restart workflow (paper §3's global-view snapshot use case): run a few
// adaption cycles, write the full adapted state (mesh + refinement forest +
// solution) to disk, read it back into a fresh process state, and continue
// the computation — including coarsening back below the snapshot's level,
// which only works because the forest was preserved.

#include <cstdio>

#include "adapt/adaptor.hpp"
#include "io/snapshot.hpp"
#include "mesh/box_mesh.hpp"
#include "solver/euler.hpp"
#include "solver/init_conditions.hpp"

int main() {
  using namespace plum;
  const char* path = "blast_restart.plum-snap";

  // --- phase 1: run and snapshot --------------------------------------------
  {
    auto mesh = mesh::make_box_mesh(mesh::small_box(6));
    solver::EulerSolver solver(&mesh);
    solver::BlastSpec blast;
    blast.radius = 0.2;
    solver::init_blast(mesh, solver.solution(), blast);
    mesh.on_bisect = [&](Index e, Index mid) {
      solver.interpolate_midpoint(e, mid);
    };

    adapt::MeshAdaptor adaptor(&mesh);
    for (int cycle = 0; cycle < 2; ++cycle) {
      solver.run(10);
      const auto err = adapt::edge_error(mesh, solver.density_field());
      adaptor.mark_fraction(err, 0.05);
      adaptor.refine();
      solver.rebuild();
    }
    io::write_snapshot_file(path, mesh, solver.solution());
    std::printf("phase 1: adapted to %d elements, snapshot written to %s\n",
                mesh.num_active_elements(), path);
  }

  // --- phase 2: restart and continue -----------------------------------------
  {
    auto snap = io::read_snapshot_file(path);  // validated on read
    std::printf("phase 2: restarted with %d elements, %zu solution dofs\n",
                snap.mesh.num_active_elements(), snap.solution.size());

    solver::EulerSolver solver(&snap.mesh);
    solver.solution() = snap.solution;
    solver.rebuild();
    snap.mesh.on_bisect = [&](Index e, Index mid) {
      solver.interpolate_midpoint(e, mid);
    };

    // Keep computing...
    solver.run(10);

    // ...and coarsen the quiet half of the domain — possible only because
    // the snapshot carried the refinement forest.
    adapt::MeshAdaptor adaptor(&snap.mesh);
    std::vector<char> cm(static_cast<std::size_t>(snap.mesh.num_edges()), 0);
    for (Index e = 0; e < snap.mesh.num_edges(); ++e) {
      const auto& ed = snap.mesh.edge(e);
      if (snap.mesh.edge_elements(e).empty()) continue;
      if (snap.mesh.vertex(ed.v0).pos.x > 0.7 &&
          snap.mesh.vertex(ed.v1).pos.x > 0.7) {
        cm[static_cast<std::size_t>(e)] = 1;
      }
    }
    const Index before = snap.mesh.num_active_elements();
    const auto stats = adaptor.coarsen(
        cm, [&](const std::vector<Index>& map) { solver.remap_solution(map); });
    solver.rebuild();
    snap.mesh.validate();
    std::printf(
        "phase 2: coarsened %d -> %d elements (%d sibling groups removed), "
        "solver still conservative: mass %.6f\n",
        before, snap.mesh.num_active_elements(), stats.groups_removed,
        solver.totals()[0]);
  }
  std::printf("restart workflow OK\n");
  return 0;
}
