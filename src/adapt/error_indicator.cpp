#include "adapt/error_indicator.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "util/assert.hpp"

namespace plum::adapt {

std::vector<double> edge_error(const mesh::TetMesh& mesh,
                               const std::vector<double>& vertex_field,
                               double length_power) {
  PLUM_ASSERT(static_cast<Index>(vertex_field.size()) ==
              mesh.num_vertices());
  std::vector<double> err(static_cast<std::size_t>(mesh.num_edges()), 0.0);
  for (Index e = 0; e < mesh.num_edges(); ++e) {
    if (mesh.edge_elements(e).empty()) continue;  // not in the active mesh
    const auto& ed = mesh.edge(e);
    const double jump = std::abs(vertex_field[static_cast<std::size_t>(ed.v1)] -
                                 vertex_field[static_cast<std::size_t>(ed.v0)]);
    err[static_cast<std::size_t>(e)] =
        jump * std::pow(mesh.edge_length(e), length_power);
  }
  return err;
}

std::vector<char> mark_above(const mesh::TetMesh& mesh,
                             const std::vector<double>& err, double upper) {
  std::vector<char> marks(err.size(), 0);
  for (Index e = 0; e < mesh.num_edges(); ++e) {
    if (!mesh.edge_elements(e).empty() &&
        err[static_cast<std::size_t>(e)] > upper) {
      marks[static_cast<std::size_t>(e)] = 1;
    }
  }
  return marks;
}

std::vector<char> mark_below(const mesh::TetMesh& mesh,
                             const std::vector<double>& err, double lower) {
  std::vector<char> marks(err.size(), 0);
  for (Index e = 0; e < mesh.num_edges(); ++e) {
    if (!mesh.edge_elements(e).empty() &&
        err[static_cast<std::size_t>(e)] < lower) {
      marks[static_cast<std::size_t>(e)] = 1;
    }
  }
  return marks;
}

std::vector<char> mark_top_fraction(const mesh::TetMesh& mesh,
                                    const std::vector<double>& err,
                                    double fraction) {
  PLUM_ASSERT(fraction >= 0.0 && fraction <= 1.0);
  std::vector<Index> active;
  for (Index e = 0; e < mesh.num_edges(); ++e) {
    if (!mesh.edge_elements(e).empty()) active.push_back(e);
  }
  const auto want = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(active.size())));
  std::vector<char> marks(err.size(), 0);
  if (want == 0) return marks;

  // Highest error first; ties by id keep runs reproducible.
  std::sort(active.begin(), active.end(), [&](Index a, Index b) {
    const double ea = err[static_cast<std::size_t>(a)];
    const double eb = err[static_cast<std::size_t>(b)];
    return ea != eb ? ea > eb : a < b;
  });
  for (std::size_t i = 0; i < want && i < active.size(); ++i) {
    marks[static_cast<std::size_t>(active[i])] = 1;
  }
  return marks;
}

std::vector<double> active_values(const mesh::TetMesh& mesh,
                                  const std::vector<double>& err) {
  std::vector<double> values;
  for (Index e = 0; e < mesh.num_edges(); ++e) {
    if (!mesh.edge_elements(e).empty()) {
      values.push_back(err[static_cast<std::size_t>(e)]);
    }
  }
  return values;
}

namespace {

/// The k-th value (0-based) in `before` order; values must be non-empty.
template <class Before>
double order_statistic(std::vector<double> values, std::size_t k,
                       Before before) {
  k = std::min(k, values.size() - 1);
  const auto kth = values.begin() + static_cast<std::ptrdiff_t>(k);
  std::nth_element(values.begin(), kth, values.end(), before);
  return *kth;
}

std::size_t fraction_count(std::size_t n, double fraction) {
  PLUM_ASSERT(fraction >= 0.0 && fraction <= 1.0);
  return static_cast<std::size_t>(fraction * static_cast<double>(n));
}

}  // namespace

double refine_threshold(std::vector<double> values, double fraction) {
  const std::size_t want = fraction_count(values.size(), fraction);
  if (want == 0) return std::numeric_limits<double>::max();
  return order_statistic(std::move(values), want, std::greater<>());
}

double coarsen_threshold(std::vector<double> values, double fraction) {
  const std::size_t want = fraction_count(values.size(), fraction);
  if (want == 0) return std::numeric_limits<double>::lowest();
  // Just above the want-th lowest value: strictly below it are that value
  // and everything lower.
  return std::nextafter(
      order_statistic(std::move(values), want - 1, std::less<>()),
      std::numeric_limits<double>::max());
}

}  // namespace plum::adapt
