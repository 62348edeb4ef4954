// Tests for snapshot round-tripping and rejection of bad snapshots, VTK
// export structure, and the table / similarity printers.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "adapt/adaptor.hpp"
#include "io/snapshot.hpp"
#include "io/table.hpp"
#include "io/vtk.hpp"
#include "mesh/box_mesh.hpp"
#include "remap/mapping.hpp"

namespace plum::io {
namespace {

TEST(Vtk, ExportContainsLeafCellsAndFields) {
  const auto m = mesh::make_box_mesh(mesh::small_box(1));
  VtkFields f;
  f.vertex_scalar.assign(static_cast<std::size_t>(m.num_vertices()), 2.5);
  f.root_partition.assign(
      static_cast<std::size_t>(m.num_initial_elements()), 3);
  std::stringstream ss;
  write_vtk(ss, m, f);
  const std::string out = ss.str();
  EXPECT_NE(out.find("DATASET UNSTRUCTURED_GRID"), std::string::npos);
  EXPECT_NE(out.find("CELLS 6 30"), std::string::npos);
  EXPECT_NE(out.find("SCALARS density double 1"), std::string::npos);
  EXPECT_NE(out.find("SCALARS processor int 1"), std::string::npos);
}

TEST(Table, AlignsColumnsAndFormats) {
  Table t({"P", "time"});
  t.add_row({"2", Table::fmt(0.12345, 3)});
  t.add_row({"64", Table::fmt(std::int64_t{42})});
  std::stringstream ss;
  t.print(ss);
  const std::string out = ss.str();
  EXPECT_NE(out.find("P"), std::string::npos);
  EXPECT_NE(out.find("0.123"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(SimilarityPrinter, MarksAssignedEntries) {
  remap::SimilarityMatrix S(2, 2);
  S.at(0, 0) = 7;
  S.at(1, 1) = 9;
  const auto a = remap::map_identity(S);
  std::stringstream ss;
  print_similarity(ss, S, &a.part_to_proc);
  const std::string out = ss.str();
  EXPECT_NE(out.find("[7]"), std::string::npos);
  EXPECT_NE(out.find("[9]"), std::string::npos);
  EXPECT_NE(out.find("R=7"), std::string::npos);
}

TEST(Snapshot, RoundTripsAdaptedMeshWithForest) {
  auto m = mesh::make_box_mesh(mesh::small_box(2));
  adapt::MeshAdaptor ad(&m);
  std::vector<char> marks(static_cast<std::size_t>(m.num_edges()), 0);
  for (Index e = 0; e < m.num_edges(); e += 4) marks[e] = 1;
  ad.mark(marks);
  ad.refine();

  std::stringstream ss;
  write_snapshot(ss, m);
  const auto snap = read_snapshot(ss);
  snap.mesh.validate();
  EXPECT_EQ(snap.mesh.num_vertices(), m.num_vertices());
  EXPECT_EQ(snap.mesh.num_edges(), m.num_edges());
  EXPECT_EQ(snap.mesh.num_elements(), m.num_elements());
  EXPECT_EQ(snap.mesh.num_active_elements(), m.num_active_elements());
  EXPECT_EQ(snap.mesh.num_active_bfaces(), m.num_active_bfaces());
  EXPECT_EQ(snap.mesh.num_initial_elements(), m.num_initial_elements());
  const auto wa = snap.mesh.root_weights();
  const auto wb = m.root_weights();
  EXPECT_EQ(wa.wcomp, wb.wcomp);
  EXPECT_EQ(wa.wremap, wb.wremap);
  EXPECT_TRUE(snap.solution.empty());
}

TEST(Snapshot, RestartedMeshCanCoarsenBelowSnapshotLevel) {
  // The whole point of storing the forest: a restart can coarsen back.
  auto m = mesh::make_box_mesh(mesh::small_box(1));
  adapt::MeshAdaptor ad(&m);
  std::vector<char> all(static_cast<std::size_t>(m.num_edges()), 1);
  ad.mark(all);
  ad.refine();

  std::stringstream ss;
  write_snapshot(ss, m);
  auto snap = read_snapshot(ss);

  adapt::MeshAdaptor ad2(&snap.mesh);
  std::vector<char> cm(static_cast<std::size_t>(snap.mesh.num_edges()), 1);
  ad2.coarsen(cm);
  snap.mesh.validate();
  EXPECT_EQ(snap.mesh.num_active_elements(), 6);
}

TEST(Snapshot, CarriesSolutionBlock) {
  auto m = mesh::make_box_mesh(mesh::small_box(1));
  std::vector<std::array<double, 5>> sol(
      static_cast<std::size_t>(m.num_vertices()));
  for (std::size_t v = 0; v < sol.size(); ++v) {
    sol[v] = {1.0 + v, 0.5, -0.25, 0.125, 2.0};
  }
  std::stringstream ss;
  write_snapshot(ss, m, sol);
  const auto snap = read_snapshot(ss);
  ASSERT_EQ(snap.solution.size(), sol.size());
  for (std::size_t v = 0; v < sol.size(); ++v) {
    for (int c = 0; c < 5; ++c) EXPECT_DOUBLE_EQ(snap.solution[v][c], sol[v][c]);
  }
}

TEST(Snapshot, RejectsBadHeader) {
  std::stringstream ss("plum-snap 99\n");
  EXPECT_DEATH(read_snapshot(ss), "plum-snap");
}

TEST(Snapshot, RejectsTruncatedStream) {
  // Hitting end-of-file mid-record must not pass for a complete stream.
  std::stringstream full;
  write_snapshot(full, mesh::make_box_mesh(mesh::small_box(2)));
  const std::string text = full.str();
  std::stringstream cut(text.substr(0, text.size() * 3 / 10));
  EXPECT_DEATH(read_snapshot(cut), "truncated plum-snap stream");
}

TEST(Snapshot, RejectsOutOfRangeIndex) {
  const auto m = mesh::make_box_mesh(mesh::small_box(1));
  std::stringstream ss;
  write_snapshot(ss, m);
  std::string text = ss.str();
  // Past the magic, counts, vertex and edge lines comes element 0: four
  // vertex ids, then its first edge id.
  std::size_t pos = 0;
  for (Index k = 0; k < 2 + m.num_vertices() + m.num_edges(); ++k) {
    pos = text.find('\n', pos) + 1;
  }
  for (int k = 0; k < 4; ++k) pos = text.find(' ', pos) + 1;
  text.replace(pos, text.find(' ', pos) - pos, "1000000");
  std::stringstream bad(text);
  EXPECT_DEATH(read_snapshot(bad), "plum-snap element id out of range");
}

TEST(Snapshot, FailedWriteIsReported) {
  // /dev/full accepts the open and fails every write with ENOSPC.
  const auto m = mesh::make_box_mesh(mesh::small_box(1));
  EXPECT_DEATH(write_snapshot_file("/dev/full", m),
               "failed writing snapshot file");
}

}  // namespace
}  // namespace plum::io
