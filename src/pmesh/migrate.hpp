#pragma once
// Data remapping / element migration (paper §4.6): physically move every
// initial-mesh element whose processor assignment changed — together with
// its whole refinement subtree ("all descendants of the root element must
// move with it") — and rebuild the per-rank local meshes and SPLs.
//
// One BSP program of four supersteps; no rank ever sees a global mesh:
//
//   S0 pack      every vertex and edge is named by a global key (the lowest
//                rank holding a copy plus that rank's local id, derived from
//                the rank's own SPLs). Each rank sends every destination one
//                pack of its leaving roots' subtrees: alive elements, the
//                edges and vertices they reference (by key, with bisection
//                links, boundary flags and solution states) and their
//                boundary-face trees.
//   S1 unpack    each rank rebuilds its LocalMesh from its kept entities in
//                their old relative order plus the packs in sender-rank
//                order, deduplicating vertices/edges by key, keeping the
//                level-0 element/edge prefixes and contiguous sibling
//                groups, and localizing ids by the constructor's rules
//                (dist_mesh.hpp). It then registers with the key's owner
//                rank every object it received, or kept but had shared or
//                packed before (no other object can gain a second holder).
//   S2 directory the owner returns each holder the other holders'
//                (rank, new local id).
//   S3 install   holders install rank-sorted SPLs.
//
// A rank's registrations with itself and replies to itself stay local, so
// the ledger carries exactly the pack bytes (S0) plus cross-rank directory
// traffic (S1/S2), and MigrateStats::bytes_sent are the pack bytes that
// crossed the transport. Every rank rewrites only its own LocalMesh; the
// work is O(local mesh + moved volume) per rank, never O(global mesh).

#include "obs/memory.hpp"
#include "pmesh/dist_mesh.hpp"
#include "solver/euler.hpp"

namespace plum::pmesh {

/// Message tags of the migration program: subtree packs (the "bulk" class
/// of obs::tag_class_name), key registrations and directory replies.
inline constexpr int kTagMigratePack = 0;
inline constexpr int kTagMigrateRegister = 21;
inline constexpr int kTagMigrateHolders = 22;

/// Supersteps one migrate() call adds to the engine ledger.
inline constexpr int kMigrateSupersteps = 4;

/// Leading record of every pack: its section sizes, in wire order. Its size
/// is the fixed per-(sender, receiver) overhead a pack carries; keep
/// sim::MachineParams::bytes_per_set equal to kPackHeaderBytes so the cost
/// model's predicted bytes price the same framing (pinned by
/// test_migrate).
struct PackHeader {
  Index roots = 0;
  Index verts = 0;
  Index states = 0;  ///< one per vertex when states migrate, else 0
  Index edges = 0;
  Index elems = 0;
  Index bfaces = 0;
};
inline constexpr std::int64_t kPackHeaderBytes = sizeof(PackHeader);

struct MigrateStats {
  /// Initial-mesh elements (roots) that changed processor.
  Index roots_moved = 0;
  /// Adapted-mesh elements moved (sum of moved subtree sizes) — the
  /// quantity Wremap predicts.
  std::int64_t elements_moved = 0;
  /// Nonzero (sender, receiver) packs — the N the cost model's per-set
  /// terms price.
  int sets_moved = 0;
  /// Pack bytes each rank sent / received, headers included — exactly the
  /// pack superstep's ledger bytes.
  std::vector<std::int64_t> bytes_sent;
  std::vector<std::int64_t> bytes_received;
};

/// Moves ownership per `new_root_part` (indexed by *global* initial-element
/// id) and rewrites `dm` in place, rank by rank. Traffic is charged on
/// `eng`. If `states` is non-null it holds one per-vertex solution vector
/// per rank (aligned with the old local meshes) and is rewritten to follow
/// the new distribution — the "all necessary data is appropriately
/// redistributed" of the paper's Fig. 1. A non-null `mem` arena-backs each
/// rank's pack/unpack staging tables on that rank's scratch row.
MigrateStats migrate(DistMesh& dm, rt::Engine& eng,
                     const partition::PartVec& new_root_part,
                     std::vector<std::vector<solver::State>>* states =
                         nullptr,
                     obs::MemoryTracker* mem = nullptr);

}  // namespace plum::pmesh
