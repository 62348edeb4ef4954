#pragma once
// Restart snapshots (paper §3: "storing a snapshot of a grid for future
// restarts could also require a global view"). A snapshot serializes the
// *entire adapted state* — every vertex/edge/element/boundary-face record
// including the refinement forest — plus an optional per-vertex solution
// block, so a computation can resume exactly where it stopped (including the
// ability to coarsen back below the snapshot's finest level).
//
// Format "plum-snap 1": a text header, then fixed-order records. Text keeps
// the format debuggable and platform-independent; snapshots of the paper-
// scale mesh (~0.4M entities) round-trip in well under a second. The reader
// aborts on a short stream, on a record id outside its table and on a mesh
// that fails validate(); the file writer aborts when a write fails.

#include <iosfwd>
#include <string>
#include <vector>

#include "mesh/tet_mesh.hpp"

namespace plum::io {

void write_snapshot(std::ostream& os, const mesh::TetMesh& mesh,
                    const std::vector<std::array<double, 5>>& solution = {});
void write_snapshot_file(const std::string& path, const mesh::TetMesh& mesh,
                         const std::vector<std::array<double, 5>>& solution = {});

struct Snapshot {
  mesh::TetMesh mesh;
  std::vector<std::array<double, 5>> solution;  ///< empty if not stored
};

Snapshot read_snapshot(std::istream& is);
Snapshot read_snapshot_file(const std::string& path);

}  // namespace plum::io
