#include "solver/euler.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace plum::solver {

using mesh::Vec3;

EulerSolver::EulerSolver(mesh::TetMesh* mesh, EulerOptions opt)
    : mesh_(mesh), opt_(opt) {
  PLUM_ASSERT(mesh != nullptr);
  u_.assign(static_cast<std::size_t>(mesh_->num_vertices()),
            State{1.0, 0.0, 0.0, 0.0, 1.0 / (opt_.gamma - 1.0)});
  rebuild();
}

void EulerSolver::rebuild(const std::vector<Index>& vertex_remap) {
  if (!vertex_remap.empty()) remap_solution(vertex_remap);
  u_.resize(static_cast<std::size_t>(mesh_->num_vertices()),
            State{1.0, 0.0, 0.0, 0.0, 1.0 / (opt_.gamma - 1.0)});
  metrics_ = build_dual_metrics(*mesh_);
}

void EulerSolver::remap_solution(const std::vector<Index>& vertex_new_to_old) {
  std::vector<State> nu(vertex_new_to_old.size(),
                        State{1.0, 0.0, 0.0, 0.0, 1.0 / (opt_.gamma - 1.0)});
  for (std::size_t v = 0; v < vertex_new_to_old.size(); ++v) {
    if (vertex_new_to_old[v] != kInvalidIndex) {
      nu[v] = u_[static_cast<std::size_t>(vertex_new_to_old[v])];
    }
  }
  u_ = std::move(nu);
}

double EulerSolver::pressure(const State& s) const {
  const double rho = s[0];
  const double ke = 0.5 * (s[1] * s[1] + s[2] * s[2] + s[3] * s[3]) / rho;
  return (opt_.gamma - 1.0) * (s[4] - ke);
}

double EulerSolver::max_wave_speed(const State& s) const {
  const double rho = std::max(s[0], 1e-12);
  const double vel =
      std::sqrt(s[1] * s[1] + s[2] * s[2] + s[3] * s[3]) / rho;
  const double p = std::max(pressure(s), 1e-12);
  return vel + std::sqrt(opt_.gamma * p / rho);
}

namespace {

/// Physical Euler flux projected on a direction n (not normalized; the
/// magnitude carries the interface area).
State flux_dot_n(const State& s, const Vec3& n, double p) {
  const double rho = s[0];
  const Vec3 vel{s[1] / rho, s[2] / rho, s[3] / rho};
  const double vn = dot(vel, n);
  return State{
      rho * vn,
      s[1] * vn + p * n.x,
      s[2] * vn + p * n.y,
      s[3] * vn + p * n.z,
      (s[4] + p) * vn,
  };
}

}  // namespace

void EulerSolver::compute_residual(const std::vector<State>& u,
                                   std::vector<State>& res) const {
  res.assign(u.size(), State{});

  // Interior fluxes: one pass over active edges (Rusanov).
  for (std::size_t k = 0; k < metrics_.edges.size(); ++k) {
    const Index e = metrics_.edges[k];
    const Index a = mesh_->edge(e).v0;
    const Index b = mesh_->edge(e).v1;
    const Vec3 n = metrics_.edge_area[k];  // oriented a -> b
    const double area = norm(n);
    if (area <= 0) continue;

    const State& ua = u[static_cast<std::size_t>(a)];
    const State& ub = u[static_cast<std::size_t>(b)];
    const State fa = flux_dot_n(ua, n, pressure(ua));
    const State fb = flux_dot_n(ub, n, pressure(ub));
    const double lam =
        std::max(max_wave_speed(ua), max_wave_speed(ub)) * area;
    for (int c = 0; c < kNumVars; ++c) {
      const double f = 0.5 * (fa[c] + fb[c]) - 0.5 * lam * (ub[c] - ua[c]);
      res[static_cast<std::size_t>(a)][c] -= f;
      res[static_cast<std::size_t>(b)][c] += f;
    }
  }

  // Slip-wall closure: only the pressure term crosses the boundary.
  for (Index v = 0; v < static_cast<Index>(u.size()); ++v) {
    const Vec3 nb = metrics_.boundary_area[static_cast<std::size_t>(v)];
    if (nb.x == 0 && nb.y == 0 && nb.z == 0) continue;
    const double p = pressure(u[static_cast<std::size_t>(v)]);
    res[static_cast<std::size_t>(v)][1] -= p * nb.x;
    res[static_cast<std::size_t>(v)][2] -= p * nb.y;
    res[static_cast<std::size_t>(v)][3] -= p * nb.z;
  }
}

StepStats EulerSolver::step() {
  const auto active = metrics_.active_vertices();

  // CFL-limited dt over active vertices.
  double dt = std::numeric_limits<double>::max();
  for (Index v : active) {
    const double h = metrics_.min_edge_length[static_cast<std::size_t>(v)];
    const double c = max_wave_speed(u_[static_cast<std::size_t>(v)]);
    dt = std::min(dt, opt_.cfl * h / std::max(c, 1e-12));
  }

  // RK2 (midpoint): u1 = u + dt/2 * R(u)/V; u  = u + dt * R(u1)/V.
  std::vector<State> res;
  compute_residual(u_, res);
  std::vector<State> u1 = u_;
  for (Index v : active) {
    const double inv_vol =
        1.0 / metrics_.cell_volume[static_cast<std::size_t>(v)];
    for (int c = 0; c < kNumVars; ++c) {
      u1[static_cast<std::size_t>(v)][c] +=
          0.5 * dt * res[static_cast<std::size_t>(v)][c] * inv_vol;
    }
  }
  compute_residual(u1, res);
  for (Index v : active) {
    const double inv_vol =
        1.0 / metrics_.cell_volume[static_cast<std::size_t>(v)];
    for (int c = 0; c < kNumVars; ++c) {
      u_[static_cast<std::size_t>(v)][c] +=
          dt * res[static_cast<std::size_t>(v)][c] * inv_vol;
    }
  }

  StepStats s;
  s.dt = dt;
  s.edge_flux_evals = 2 * static_cast<std::int64_t>(metrics_.edges.size());
  return s;
}

std::int64_t EulerSolver::run(int nsteps) {
  std::int64_t work = 0;
  for (int i = 0; i < nsteps; ++i) work += step().edge_flux_evals;
  return work;
}

std::vector<double> EulerSolver::density_field() const {
  std::vector<double> rho(u_.size(), 0.0);
  for (std::size_t v = 0; v < u_.size(); ++v) rho[v] = u_[v][0];
  return rho;
}

State EulerSolver::totals() const {
  State t{};
  for (Index v = 0; v < static_cast<Index>(u_.size()); ++v) {
    const double vol = metrics_.cell_volume[static_cast<std::size_t>(v)];
    for (int c = 0; c < kNumVars; ++c) {
      t[c] += vol * u_[static_cast<std::size_t>(v)][c];
    }
  }
  return t;
}

void EulerSolver::interpolate_midpoint(Index edge, Index mid) {
  const Index a = mesh_->edge(edge).v0;
  const Index b = mesh_->edge(edge).v1;
  if (static_cast<std::size_t>(mid) >= u_.size()) {
    u_.resize(static_cast<std::size_t>(mid) + 1,
              State{1.0, 0.0, 0.0, 0.0, 1.0 / (opt_.gamma - 1.0)});
  }
  for (int c = 0; c < kNumVars; ++c) {
    u_[static_cast<std::size_t>(mid)][c] =
        0.5 * (u_[static_cast<std::size_t>(a)][c] +
               u_[static_cast<std::size_t>(b)][c]);
  }
}

}  // namespace plum::solver
