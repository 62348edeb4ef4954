#include "pmesh/parallel_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "runtime/collectives.hpp"
#include "util/assert.hpp"

namespace plum::pmesh {

using mesh::Vec3;
using solver::State;

namespace {

constexpr int kTagMetric = 11;
constexpr int kTagResidual = 12;

struct VertScalarMsg {
  Index local_id;  ///< receiver-local vertex id
  double volume;
  double min_len;
  Vec3 boundary_area;
};

struct EdgeAreaMsg {
  Index local_id;  ///< receiver-local edge id
  Vec3 area;       ///< sender's partial, oriented sender v0 -> v1
  Index your_v0;   ///< receiver-local id of the sender's v0 (orientation)
};

struct ResidualMsg {
  Index local_id;
  State partial;
};

Rank min_rank(Rank self, const std::vector<SharedCopy>& spl) {
  Rank m = self;
  for (const auto& c : spl) m = std::min(m, c.rank);
  return m;
}

/// A vertex's primitives as the flux loop reads them: velocity, pressure
/// and maximum wave speed.
struct Primitives {
  Vec3 vel;
  double p;
  double c;
};

/// Empties `v` and makes room for `n` elements without reallocating below.
template <class T>
void reserve_empty(std::vector<T>& v, std::size_t n) {
  v.clear();
  v.reserve(n);
}

}  // namespace

ParallelEulerSolver::ParallelEulerSolver(DistMesh* dm, rt::Engine* eng,
                                         solver::EulerOptions opt)
    : dm_(dm), eng_(eng), opt_(opt) {
  PLUM_ASSERT(dm != nullptr && eng != nullptr);
  const Rank P = dm_->nranks();
  // plum-scale: dist(P) -- the in-process harness keeps one solver state per simulated rank
  metrics_.resize(static_cast<std::size_t>(P));
  // plum-scale: dist(P) -- the in-process harness keeps one solver state per simulated rank
  edge_owned_.resize(static_cast<std::size_t>(P));
  // plum-scale: dist(P) -- the in-process harness keeps one solver state per simulated rank
  vert_owned_.resize(static_cast<std::size_t>(P));
  // plum-scale: dist(P) -- the in-process harness keeps one solver state per simulated rank
  active_.resize(static_cast<std::size_t>(P));
  // plum-scale: dist(P) -- the in-process harness keeps one solver state per simulated rank
  plan_.resize(static_cast<std::size_t>(P));
  // plum-scale: dist(P) -- the in-process harness keeps one solver state per simulated rank
  u_.resize(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    u_[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(dm_->local(r).mesh.num_vertices()),
        State{1.0, 0.0, 0.0, 0.0, 1.0 / (opt_.gamma - 1.0)});
  }
  rebind();
}

void ParallelEulerSolver::rebind() {
  const Rank P = dm_->nranks();
  // Slot lookup: local edge id -> metrics slot, per rank.
  // plum-scale: dist(P) -- per-rank slot maps used to stage the halo exchange
  std::vector<std::vector<Index>> slots(static_cast<std::size_t>(P));
  // Reserve on the coordinating thread: arrays a worker thread grows land
  // in that thread's malloc arena and stay resident there.
  for (Rank r = 0; r < P; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const auto& mesh = dm_->local(r).mesh;
    const auto nv = static_cast<std::size_t>(mesh.num_vertices());
    const auto ne = static_cast<std::size_t>(mesh.num_edges());
    PLUM_ASSERT_MSG(u_[i].size() == nv, "states must follow the local mesh");
    auto& m = metrics_[i];
    reserve_empty(m.edges, ne);
    reserve_empty(m.edge_area, ne);
    reserve_empty(m.cell_volume, nv);
    reserve_empty(m.boundary_area, nv);
    reserve_empty(m.min_edge_length, nv);
    reserve_empty(edge_owned_[i], ne);
    reserve_empty(vert_owned_[i], nv);
    slots[i].reserve(ne);
    reserve_empty(active_[i], nv);
  }

  eng_->run([&](Rank r, const rt::Inbox& inbox, rt::Outbox& out) {
    const auto& lm = dm_->local(r);
    auto& m = metrics_[static_cast<std::size_t>(r)];
    auto& slot = slots[static_cast<std::size_t>(r)];

    if (out.step() == 0) {
      // Local metrics, owned flags and the slot map, charged per element.
      solver::build_dual_metrics(lm.mesh, &m);
      out.charge(lm.mesh.num_active_elements());
      slot.assign(static_cast<std::size_t>(lm.mesh.num_edges()),
                  kInvalidIndex);
      for (std::size_t k = 0; k < m.edges.size(); ++k) {
        slot[static_cast<std::size_t>(m.edges[k])] = static_cast<Index>(k);
      }
      auto& eo = edge_owned_[static_cast<std::size_t>(r)];
      eo.assign(static_cast<std::size_t>(lm.mesh.num_edges()), 1);
      for (const auto& [e, spl] : lm.shared_edges) {
        eo[static_cast<std::size_t>(e)] = (min_rank(r, spl) == r);
      }
      auto& vo = vert_owned_[static_cast<std::size_t>(r)];
      vo.assign(static_cast<std::size_t>(lm.mesh.num_vertices()), 1);
      for (const auto& [v, spl] : lm.shared_verts) {
        vo[static_cast<std::size_t>(v)] = (min_rank(r, spl) == r);
      }

      // The residual plan: each SPL peer's (local vertex, remote id) pairs
      // in ascending local id, flattened in ascending peer order.
      auto& plan = plan_[static_cast<std::size_t>(r)];
      PeerBuckets<std::pair<Index, Index>> by_peer;
      for (const auto& [v, spl] : lm.shared_verts) {
        for (const auto& c : spl) by_peer[c.rank].push_back({v, c.remote_id});
      }
      plan.peers.assign(by_peer.peers().begin(), by_peer.peers().end());
      plan.offsets.assign(1, 0);
      plan.pairs.clear();
      for (const Rank q : plan.peers) {
        plan.pairs.insert(plan.pairs.end(), by_peer[q].begin(),
                          by_peer[q].end());
        plan.offsets.push_back(static_cast<Index>(plan.pairs.size()));
      }

      // Send partial vertex quantities (along the plan) and partial edge
      // areas to copies.
      PeerBuckets<EdgeAreaMsg> eout;
      for (const auto& [e, spl] : lm.shared_edges) {
        const Index s = slot[static_cast<std::size_t>(e)];
        if (s == kInvalidIndex) continue;  // not active locally
        const Index v0 = lm.mesh.edge(e).v0;
        for (const auto& c : spl) {
          // Receiver-local id of our v0, for orientation agreement.
          Index v0_on_peer = kInvalidIndex;
          auto it = lm.shared_verts.find(v0);
          PLUM_ASSERT(it != lm.shared_verts.end());
          for (const auto& vc : it->second) {
            if (vc.rank == c.rank) v0_on_peer = vc.remote_id;
          }
          PLUM_ASSERT(v0_on_peer != kInvalidIndex);
          eout[c.rank].push_back(
              {c.remote_id, m.edge_area[static_cast<std::size_t>(s)],
               v0_on_peer});
        }
      }
      std::vector<VertScalarMsg> vout;
      for (std::size_t i = 0; i < plan.peers.size(); ++i) {
        vout.clear();
        for (Index k = plan.offsets[i]; k < plan.offsets[i + 1]; ++k) {
          const auto& [v, remote] = plan.pairs[static_cast<std::size_t>(k)];
          vout.push_back({remote, m.cell_volume[static_cast<std::size_t>(v)],
                          m.min_edge_length[static_cast<std::size_t>(v)],
                          m.boundary_area[static_cast<std::size_t>(v)]});
        }
        const Rank q = plan.peers[i];
        out.send_vec(q, kTagMetric, vout);
        if (!eout[q].empty()) out.send_vec(q, kTagMetric + 100, eout[q]);
      }
      return true;
    }

    for (const auto* msg : inbox.with_tag(kTagMetric)) {
      for (const auto& rec : rt::unpack<VertScalarMsg>(*msg)) {
        m.cell_volume[static_cast<std::size_t>(rec.local_id)] += rec.volume;
        m.min_edge_length[static_cast<std::size_t>(rec.local_id)] = std::min(
            m.min_edge_length[static_cast<std::size_t>(rec.local_id)],
            rec.min_len);
        m.boundary_area[static_cast<std::size_t>(rec.local_id)] +=
            rec.boundary_area;
      }
    }
    for (const auto* msg : inbox.with_tag(kTagMetric + 100)) {
      for (const auto& rec : rt::unpack<EdgeAreaMsg>(*msg)) {
        const Index s = slot[static_cast<std::size_t>(rec.local_id)];
        PLUM_ASSERT_MSG(s != kInvalidIndex,
                        "peer active edge inactive locally");
        const bool aligned = lm.mesh.edge(rec.local_id).v0 == rec.your_v0;
        m.edge_area[static_cast<std::size_t>(s)] +=
            aligned ? rec.area : rec.area * -1.0;
      }
    }
    // Volumes are global only now, so the active set is too (the rule of
    // DualMetrics::active_vertices, filled in place).
    auto& active = active_[static_cast<std::size_t>(r)];
    for (Index v = 0; v < static_cast<Index>(m.cell_volume.size()); ++v) {
      if (m.cell_volume[static_cast<std::size_t>(v)] > 0) active.push_back(v);
    }
    return false;
  });
}

double ParallelEulerSolver::pressure(const State& s) const {
  const double rho = s[0];
  const double ke = 0.5 * (s[1] * s[1] + s[2] * s[2] + s[3] * s[3]) / rho;
  return (opt_.gamma - 1.0) * (s[4] - ke);
}

double ParallelEulerSolver::max_wave_speed(const State& s, double p) const {
  const double rho = std::max(s[0], 1e-12);
  const double vel = std::sqrt(s[1] * s[1] + s[2] * s[2] + s[3] * s[3]) / rho;
  return vel + std::sqrt(opt_.gamma * std::max(p, 1e-12) / rho);
}

ParallelEulerSolver::StepInfo ParallelEulerSolver::step() {
  const Rank P = dm_->nranks();
  StepInfo info;
  // plum-scale: host-only -- per-rank flux-eval counters for the step report
  info.edge_flux_evals.assign(static_cast<std::size_t>(P), 0);
  // plum-scale: dist(P) -- one global-dt slot per simulated rank, written by that rank
  std::vector<double> dt(static_cast<std::size_t>(P), 0.0);
  // plum-scale: dist(P) -- the harness keeps one residual vector per simulated rank
  std::vector<std::vector<State>> res(static_cast<std::size_t>(P));
  // plum-scale: dist(P) -- the harness keeps one RK2 stage state per simulated rank
  std::vector<std::vector<State>> u1(static_cast<std::size_t>(P));
  // plum-scale: dist(P) -- the harness keeps one primitives array per simulated rank
  std::vector<std::vector<Primitives>> prim(static_cast<std::size_t>(P));

  // Each active vertex's primitives of uu, once per flux stage. Every edge
  // endpoint is active, so the flux loop reads only filled entries.
  auto fill_primitives = [&](Rank r, const std::vector<State>& uu) {
    auto& pv = prim[static_cast<std::size_t>(r)];
    pv.resize(uu.size());
    for (const Index v : active_[static_cast<std::size_t>(r)]) {
      const State& s = uu[static_cast<std::size_t>(v)];
      const double p = pressure(s);
      pv[static_cast<std::size_t>(v)] = {
          Vec3{s[1] / s[0], s[2] / s[0], s[3] / s[0]}, p,
          max_wave_speed(s, p)};
    }
  };

  // Owner-computes flux loop over uu (whose primitives are filled) into rr,
  // charged to rank r; then the partial residuals of shared vertices go to
  // every copy along the residual plan.
  auto flux_stage = [&](Rank r, const std::vector<State>& uu,
                        std::vector<State>& rr, rt::Outbox& out) {
    const auto& lm = dm_->local(r);
    const auto& m = metrics_[static_cast<std::size_t>(r)];
    const auto& owned = edge_owned_[static_cast<std::size_t>(r)];
    const auto& pv = prim[static_cast<std::size_t>(r)];
    rr.assign(uu.size(), State{});
    std::int64_t evals = 0;
    for (std::size_t k = 0; k < m.edges.size(); ++k) {
      const Index e = m.edges[k];
      if (!owned[static_cast<std::size_t>(e)]) continue;  // a peer computes it
      const Index a = lm.mesh.edge(e).v0;
      const Index b = lm.mesh.edge(e).v1;
      const Vec3 n = m.edge_area[k];
      const double area = norm(n);
      if (area <= 0) continue;
      const State& ua = uu[static_cast<std::size_t>(a)];
      const State& ub = uu[static_cast<std::size_t>(b)];
      const Primitives& qa = pv[static_cast<std::size_t>(a)];
      const Primitives& qb = pv[static_cast<std::size_t>(b)];
      const double vna = dot(qa.vel, n), vnb = dot(qb.vel, n);
      const State fa{ua[0] * vna, ua[1] * vna + qa.p * n.x,
                     ua[2] * vna + qa.p * n.y, ua[3] * vna + qa.p * n.z,
                     (ua[4] + qa.p) * vna};
      const State fb{ub[0] * vnb, ub[1] * vnb + qb.p * n.x,
                     ub[2] * vnb + qb.p * n.y, ub[3] * vnb + qb.p * n.z,
                     (ub[4] + qb.p) * vnb};
      const double lam = std::max(qa.c, qb.c) * area;
      for (int c = 0; c < solver::kNumVars; ++c) {
        const double f = 0.5 * (fa[c] + fb[c]) - 0.5 * lam * (ub[c] - ua[c]);
        rr[static_cast<std::size_t>(a)][c] -= f;
        rr[static_cast<std::size_t>(b)][c] += f;
      }
      ++evals;
    }
    info.edge_flux_evals[static_cast<std::size_t>(r)] += evals;
    out.charge(evals);
    const auto& plan = plan_[static_cast<std::size_t>(r)];
    std::vector<ResidualMsg> msg;
    for (std::size_t i = 0; i < plan.peers.size(); ++i) {
      msg.clear();
      for (Index k = plan.offsets[i]; k < plan.offsets[i + 1]; ++k) {
        const auto& [v, remote] = plan.pairs[static_cast<std::size_t>(k)];
        msg.push_back({remote, rr[static_cast<std::size_t>(v)]});
      }
      out.send_vec(plan.peers[i], kTagResidual, msg);
    }
  };

  // Sums the copies' partials in inbox (sender-rank) order, then adds the
  // boundary closure: every copy adds the same full term locally, so it is
  // counted once in each copy's (identical) total.
  auto close_stage = [&](Rank r, const rt::Inbox& inbox,
                         const std::vector<State>& uu, std::vector<State>& rr) {
    for (const auto* msg : inbox.with_tag(kTagResidual)) {
      for (const auto& rec : rt::unpack<ResidualMsg>(*msg)) {
        auto& acc = rr[static_cast<std::size_t>(rec.local_id)];
        for (int c = 0; c < solver::kNumVars; ++c) acc[c] += rec.partial[c];
      }
    }
    const auto& m = metrics_[static_cast<std::size_t>(r)];
    for (std::size_t v = 0; v < rr.size(); ++v) {
      const Vec3 nb = m.boundary_area[v];
      if (nb.x == 0 && nb.y == 0 && nb.z == 0) continue;
      const double p = pressure(uu[v]);
      rr[v][1] -= p * nb.x;
      rr[v][2] -= p * nb.y;
      rr[v][3] -= p * nb.z;
    }
  };

  // R(u) does not depend on dt, so the CFL minimum is reduced through rank
  // 0 while the stage-1 residual is exchanged: 2P messages, no superstep.
  eng_->run([&](Rank r, const rt::Inbox& inbox, rt::Outbox& out) {
    const auto& m = metrics_[static_cast<std::size_t>(r)];
    const auto& active = active_[static_cast<std::size_t>(r)];
    auto& u = u_[static_cast<std::size_t>(r)];
    auto& stage = u1[static_cast<std::size_t>(r)];
    auto& rr = res[static_cast<std::size_t>(r)];
    double& my_dt = dt[static_cast<std::size_t>(r)];
    switch (out.step()) {
      case 0: {  // local CFL limit to rank 0, stage-1 residual R(u)
        fill_primitives(r, u);
        const auto& pv = prim[static_cast<std::size_t>(r)];
        double local = std::numeric_limits<double>::max();
        for (Index v : active) {
          const auto i = static_cast<std::size_t>(v);
          local = std::min(local, opt_.cfl * m.min_edge_length[i] /
                                      std::max(pv[i].c, 1e-12));
        }
        out.send_vec(0, rt::detail::kCollectiveTag, std::vector<double>{local});
        flux_stage(r, u, rr, out);
        return true;
      }
      case 1:  // rank 0 broadcasts the global dt; every rank closes stage 1
        if (r == 0) {
          double global = std::numeric_limits<double>::max();
          for (const auto* msg : inbox.with_tag(rt::detail::kCollectiveTag)) {
            global = std::min(global, rt::unpack<double>(*msg)[0]);
          }
          const std::vector<double> global_dt{global};
          // plum-scale: allow(all-ranks-send) -- the root's broadcast of the
          // CFL minimum: P messages per step, half of the reduction's 2P
          for (Rank q = 0; q < P; ++q) {
            out.send_vec(q, rt::detail::kCollectiveTag, global_dt);
          }
        }
        close_stage(r, inbox, u, rr);
        return true;
      case 2:  // u1 = u + dt/2 * R(u) / vol, stage-2 residual R(u1)
        my_dt = rt::unpack<double>(
            *inbox.with_tag(rt::detail::kCollectiveTag).front())[0];
        stage = u;
        for (Index v : active) {
          const auto i = static_cast<std::size_t>(v);
          const double inv_vol = 1.0 / m.cell_volume[i];
          for (int c = 0; c < solver::kNumVars; ++c) {
            stage[i][c] += 0.5 * my_dt * rr[i][c] * inv_vol;
          }
        }
        fill_primitives(r, stage);
        flux_stage(r, stage, rr, out);
        return true;
      default:  // u += dt * R(u1) / vol
        close_stage(r, inbox, stage, rr);
        for (Index v : active) {
          const auto i = static_cast<std::size_t>(v);
          const double inv_vol = 1.0 / m.cell_volume[i];
          for (int c = 0; c < solver::kNumVars; ++c) {
            u[i][c] += my_dt * rr[i][c] * inv_vol;
          }
        }
        return false;
    }
  });
  info.dt = dt[0];
  return info;
}

std::int64_t ParallelEulerSolver::run(int nsteps) {
  std::int64_t work = 0;
  for (int i = 0; i < nsteps; ++i) {
    for (const std::int64_t w : step().edge_flux_evals) work += w;
  }
  return work;
}

State ParallelEulerSolver::totals() const {
  State t{};
  for (Rank r = 0; r < dm_->nranks(); ++r) {
    const auto& m = metrics_[static_cast<std::size_t>(r)];
    for (Index v = 0; v < static_cast<Index>(u_[static_cast<std::size_t>(r)].size());
         ++v) {
      if (!vert_owned_[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)]) {
        continue;  // counted by the owner
      }
      const double vol = m.cell_volume[static_cast<std::size_t>(v)];
      for (int c = 0; c < solver::kNumVars; ++c) {
        t[c] += vol *
                u_[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)][c];
      }
    }
  }
  return t;
}

std::vector<double> ParallelEulerSolver::density_field(Rank r) const {
  const auto& uu = u_[static_cast<std::size_t>(r)];
  std::vector<double> rho(uu.size());
  for (std::size_t v = 0; v < uu.size(); ++v) rho[v] = uu[v][0];
  return rho;
}

void ParallelEulerSolver::validate_replication() const {
  for (Rank r = 0; r < dm_->nranks(); ++r) {
    for (const auto& [v, spl] : dm_->local(r).shared_verts) {
      for (const auto& c : spl) {
        const auto& a = u_[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)];
        const auto& b = u_[static_cast<std::size_t>(c.rank)]
                          [static_cast<std::size_t>(c.remote_id)];
        for (int k = 0; k < solver::kNumVars; ++k) {
          PLUM_ASSERT_MSG(std::abs(a[k] - b[k]) <= 1e-11,
                          "shared vertex state diverged across ranks");
        }
      }
    }
  }
}

}  // namespace plum::pmesh
