#include "order/rcm.hpp"

#include <algorithm>
#include <stdexcept>

namespace er {

namespace {

/// BFS from `start` over the matrix pattern; returns nodes level by level
/// and the index of a node in the last level (candidate peripheral node).
struct BfsResult {
  std::vector<index_t> order;
  index_t last_node = -1;
  index_t levels = 0;
};

BfsResult pattern_bfs(const CscMatrix& a, index_t start,
                      std::vector<index_t>& mark, index_t stamp,
                      bool sort_by_degree, const std::vector<index_t>& degree) {
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_ind();
  BfsResult res;
  res.order.push_back(start);
  mark[static_cast<std::size_t>(start)] = stamp;
  std::size_t level_begin = 0;
  std::vector<index_t> frontier;
  while (level_begin < res.order.size()) {
    const std::size_t level_end = res.order.size();
    frontier.clear();
    for (std::size_t q = level_begin; q < level_end; ++q) {
      const index_t u = res.order[q];
      for (offset_t p = cp[static_cast<std::size_t>(u)];
           p < cp[static_cast<std::size_t>(u) + 1]; ++p) {
        const index_t v = ri[static_cast<std::size_t>(p)];
        if (v == u || mark[static_cast<std::size_t>(v)] == stamp) continue;
        mark[static_cast<std::size_t>(v)] = stamp;
        frontier.push_back(v);
      }
    }
    // (degree, index) is a total order, so the level's order does not
    // depend on how std::sort treats equal keys (DESIGN.md §3).
    if (sort_by_degree)
      std::sort(frontier.begin(), frontier.end(),
                [&](index_t x, index_t y) {
                  const index_t dx = degree[static_cast<std::size_t>(x)];
                  const index_t dy = degree[static_cast<std::size_t>(y)];
                  return dx != dy ? dx < dy : x < y;
                });
    for (index_t v : frontier) res.order.push_back(v);
    level_begin = level_end;
    if (!frontier.empty()) ++res.levels;
  }
  res.last_node = res.order.back();
  return res;
}

}  // namespace

std::vector<index_t> rcm_order(const CscMatrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("rcm_order: not square");
  const index_t n = a.cols();
  std::vector<index_t> degree(static_cast<std::size_t>(n));
  for (index_t c = 0; c < n; ++c)
    degree[static_cast<std::size_t>(c)] = static_cast<index_t>(
        a.col_ptr()[static_cast<std::size_t>(c) + 1] -
        a.col_ptr()[static_cast<std::size_t>(c)]);

  std::vector<index_t> mark(static_cast<std::size_t>(n), -1);
  std::vector<index_t> visited(static_cast<std::size_t>(n), 0);
  std::vector<index_t> perm;
  perm.reserve(static_cast<std::size_t>(n));

  index_t stamp = 0;
  for (index_t s = 0; s < n; ++s) {
    if (visited[static_cast<std::size_t>(s)]) continue;

    // Find a pseudo-peripheral start: BFS twice from the component seed.
    BfsResult b1 = pattern_bfs(a, s, mark, ++stamp, false, degree);
    BfsResult b2 = pattern_bfs(a, b1.last_node, mark, ++stamp, false, degree);
    const index_t start = b2.levels > b1.levels ? b1.last_node : s;

    BfsResult cm = pattern_bfs(a, start, mark, ++stamp, true, degree);
    for (index_t v : cm.order) {
      visited[static_cast<std::size_t>(v)] = 1;
      perm.push_back(v);
    }
  }
  // Reverse for RCM.
  std::reverse(perm.begin(), perm.end());
  return perm;
}

}  // namespace er
