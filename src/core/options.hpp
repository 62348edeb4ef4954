#pragma once
// What both Fig. 1 drivers (core::Framework, core::DistFramework) take and
// return: the options, which mean the same thing in each, and the report
// of one cycle, which each fills completely.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/memory.hpp"
#include "remap/volume.hpp"
#include "runtime/transport.hpp"
#include "sim/calibration.hpp"
#include "sim/machine.hpp"

namespace plum::core {

enum class MapperKind { kHeuristicGreedy, kOptimalMwbg, kOptimalBmcm };

struct FrameworkOptions {
  Rank nranks = 8;
  Rank partitions_per_proc = 1;  ///< the paper's F
  /// Repartition when predicted post-refinement imbalance exceeds this.
  double imbalance_trigger = 1.15;
  /// kOptimalBmcm optimizes MaxV with machine.alpha/beta and needs F = 1.
  MapperKind mapper = MapperKind::kHeuristicGreedy;
  sim::CostMetric metric = sim::CostMetric::kTotalV;
  /// Remap on the pre-subdivision mesh (paper §4.6) vs after refinement.
  bool remap_before_subdivision = true;
  /// Fraction of active edges marked for refinement per adaption
  /// (adapt::refine_threshold: at most this fraction, ties at the cut
  /// unmarked).
  double refine_fraction = 0.05;
  /// Fraction of active edges (lowest error) targeted for coarsening before
  /// each refinement (adapt::coarsen_threshold; 0 disables the coarsening
  /// phase of Fig. 1).
  double coarsen_fraction = 0.0;
  /// Solver steps run per cycle. The gate's gain prices
  /// machine.solver_iters_per_adaption iterations (the paper's Nadapt),
  /// which need not equal this count.
  int solver_steps_per_cycle = 20;
  sim::MachineParams machine;
  std::uint64_t seed = 12345;
  // --- engine fields -------------------------------------------------------
  // threads, transport, transport_procs and scope_ring_capacity choose how
  // DistFramework's BSP engine executes, never what it computes (results
  // are bit-identical across all settings), so the single-address-space
  // Framework, which runs no engine, ignores them.
  /// Worker threads: 1 = the sequential reference engine, 0 = one worker
  /// per hardware core, N > 1 = a ParallelEngine with N workers (see
  /// runtime/engine.hpp's determinism contract).
  int threads = 1;
  /// Message fabric: kInProc moves messages in-memory; kFramed encodes
  /// every payload into frames and decodes them back (see
  /// runtime/transport.hpp's delivery contract).
  rt::TransportKind transport = rt::TransportKind::kInProc;
  /// Ignored. Kept only because existing callers still set it.
  int transport_procs = 0;
  /// Per-rank capacity of the always-on flight-recorder ring
  /// (obs::FlightRecorder). Oldest events are overwritten, so this bounds
  /// both memory and postmortem size.
  int scope_ring_capacity = 256;
  // ---------------------------------------------------------------------------
  /// Online cost-model calibration (sim/calibration.hpp). Disabled by
  /// default: a live calibration consumes wall-clock phase timings, which
  /// are real but nondeterministic; deterministic runs use replay_path.
  sim::CalibrationOptions calibration;
  /// Path to a plum-replay/1 timing book. Non-empty switches the cycle
  /// loop to deterministic replay: calibration reads the book's seconds
  /// instead of the wall clock (and implies calibration.enabled), so every
  /// calibrated constant — and everything it prices — is byte-identical
  /// across engines, thread counts, and transports.
  std::string replay_path;
  /// Run name stamped on plum-scope/1 stream records and, in the
  /// distributed driver, on its flight-recorder crash postmortem
  /// (POSTMORTEM_<scope_name>.json).
  std::string scope_name = "plum";
  /// Non-empty: append one plum-scope/1 NDJSON record per cycle to this
  /// file (per-rank busy/wait, gate verdict, imbalance, RSS).
  /// tools/plum-top tails it for a live view.
  std::string scope_stream;
  /// Chunk size of the per-row plum-mem scratch arenas (obs::MemoryTracker).
  /// Phase scratch buffers (HEM matching, KL-FM refine, remap staging,
  /// subdivision snapshots) bump-allocate from these; smaller chunks stress
  /// the overflow path, larger ones amortize chunk requests.
  std::size_t arena_chunk_bytes = obs::Arena::kDefaultChunkBytes;
};

/// Everything one solve->adapt->balance cycle measured or decided; both
/// drivers fill every field.
struct CycleReport {
  Index elements_before = 0;
  Index elements_after = 0;
  Index elements_coarsened = 0;  ///< removed by the coarsening phase
  /// Propagation rounds of the marking (the distributed driver counts
  /// communication rounds, which can differ from the serial sweeps).
  int mark_rounds = 0;

  bool evaluated_repartition = false;  ///< trigger fired
  bool accepted = false;               ///< remap executed
  bool used_previous_partition = false;

  double imbalance_old = 0;  ///< predicted wcomp imbalance, old partitions
  double imbalance_new = 0;  ///< after repartitioning + reassignment
  Weight wmax_old = 0;
  Weight wmax_new = 0;

  double gain_seconds = 0;
  double cost_seconds = 0;
  double mapper_seconds = 0;
  remap::RemapVolume volume;
  /// Adapted-mesh elements the remap moved (the moved roots' tree sizes).
  std::int64_t elements_migrated = 0;

  std::int64_t solver_work = 0;  ///< edge flux evaluations this cycle
  /// Subdivision work per processor (children created) — balanced when the
  /// remap-before-subdivision path accepted.
  std::vector<Weight> refine_work_per_rank;
};

}  // namespace plum::core
