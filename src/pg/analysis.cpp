#include "pg/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "chol/cholesky.hpp"
#include "order/amd.hpp"
#include "parallel/thread_pool.hpp"
#include "util/timer.hpp"

namespace er {

namespace {

/// AMD-ordered factor of an analysis system, on a transient all-core pool
/// (the rule ApproxCholEffRes follows for its Alg. 2 build); the factor is
/// bitwise equal to the serial one.
CholFactor factor_system(const CscMatrix& g) {
  return cholesky(g, amd_order(g), transient_pool(0).get());
}

}  // namespace

DcSolution solve_dc(const ConductanceNetwork& net,
                    const std::vector<real_t>& injections) {
  DcSolution sol;
  Timer t;
  const CscMatrix g = net.system_matrix();
  const CholFactor f = factor_system(g);
  sol.factor_seconds = t.seconds();
  t.reset();
  sol.drops = f.solve(injections);
  sol.solve_seconds = t.seconds();
  return sol;
}

std::vector<real_t> map_injections(const ReducedModel& model,
                                   const std::vector<real_t>& full) {
  std::vector<real_t> out(
      static_cast<std::size_t>(model.network.num_nodes()), 0.0);
  for (std::size_t v = 0; v < full.size(); ++v) {
    if (full[v] == 0.0) continue;
    const index_t gid = model.node_map[v];
    if (gid < 0)
      throw std::invalid_argument(
          "map_injections: nonzero injection at an eliminated node");
    out[static_cast<std::size_t>(gid)] += full[v];
  }
  return out;
}

std::vector<real_t> map_capacitances(const ReducedModel& model,
                                     const std::vector<real_t>& full) {
  std::vector<real_t> out(
      static_cast<std::size_t>(model.network.num_nodes()), 0.0);
  for (std::size_t v = 0; v < full.size(); ++v) {
    const real_t c = full[v];
    if (c == 0.0) continue;
    const index_t gid = model.node_map[v];
    if (gid >= 0) {
      out[static_cast<std::size_t>(gid)] += c;
      continue;
    }
    // Interior node: spread over the kept nodes of its block.
    const index_t b = model.block_of[v];
    const auto& kept = model.block_kept[static_cast<std::size_t>(b)];
    if (kept.empty()) continue;  // floating block (no ports): cap dropped
    const real_t share = c / static_cast<real_t>(kept.size());
    for (index_t gid2 : kept) out[static_cast<std::size_t>(gid2)] += share;
  }
  return out;
}

TransientResult run_transient(const ConductanceNetwork& net,
                              const std::vector<real_t>& caps,
                              const std::vector<CurrentLoad>& loads,
                              const TransientOptions& opts,
                              const std::vector<index_t>& probes) {
  const index_t n = net.num_nodes();
  if (caps.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("run_transient: caps size mismatch");
  if (!(opts.step > 0.0) || opts.steps <= 0)
    throw std::invalid_argument("run_transient: bad step configuration");

  TransientResult res;
  Timer t;

  // System matrix G + C/h (C diagonal).
  CscMatrix g = net.system_matrix();
  {
    // Add C/h onto the diagonal via triplets to keep the CSC invariants.
    TripletMatrix diag(n, n);
    for (index_t v = 0; v < n; ++v)
      if (caps[static_cast<std::size_t>(v)] != 0.0)
        diag.add(v, v, caps[static_cast<std::size_t>(v)] / opts.step);
    g = g.add(CscMatrix::from_triplets(diag));
  }
  const CholFactor f = factor_system(g);
  res.factor_seconds = t.seconds();

  // The steps run in the factor's permuted space, so a step allocates
  // nothing: x is the work vector solve_permuted overwrites, and d the
  // previous step's drops (P d, at rest at first). Every entry takes the
  // operations of CholFactor::solve on the original-space rhs.
  t.reset();
  const auto un = static_cast<std::size_t>(n);
  std::vector<real_t> cap_step(un);  // (P C / h) diagonal
  for (std::size_t i = 0; i < un; ++i)
    cap_step[i] = caps[static_cast<std::size_t>(f.perm[i])] / opts.step;
  std::vector<real_t> d(un, 0.0);
  std::vector<real_t> x(un);
  res.series.assign(probes.size(), {});
  for (auto& s : res.series) s.reserve(static_cast<std::size_t>(opts.steps));

  for (int k = 1; k <= opts.steps; ++k) {
    const real_t time = static_cast<real_t>(k) * opts.step;
    std::fill(x.begin(), x.end(), 0.0);
    for (const auto& load : loads)
      x[static_cast<std::size_t>(f.inv_perm[static_cast<std::size_t>(load.node)])] +=
          load.current_at(time);
    for (std::size_t i = 0; i < un; ++i) x[i] += cap_step[i] * d[i];
    f.solve_permuted(x);
    std::swap(d, x);
    for (std::size_t p = 0; p < probes.size(); ++p)
      res.series[p].push_back(
          d[static_cast<std::size_t>(f.inv_perm[static_cast<std::size_t>(probes[p])])]);
  }
  res.solve_seconds = t.seconds();
  return res;
}

std::vector<CurrentLoad> map_loads(const ReducedModel& model,
                                   const std::vector<CurrentLoad>& loads) {
  std::vector<CurrentLoad> out;
  out.reserve(loads.size());
  for (const auto& l : loads) {
    const index_t gid = model.node_map[static_cast<std::size_t>(l.node)];
    if (gid < 0)
      throw std::invalid_argument("map_loads: load node was eliminated");
    CurrentLoad m = l;
    m.node = gid;
    out.push_back(m);
  }
  return out;
}

SolutionError compare_dc(const std::vector<real_t>& reference_drops,
                         const DcSolution& reduced_solution,
                         const ReducedModel& model,
                         const std::vector<index_t>& port_nodes) {
  SolutionError e;
  if (port_nodes.empty()) return e;
  double max_drop = 0.0;
  for (real_t v : reference_drops) max_drop = std::max(max_drop, std::abs(v));
  double acc = 0.0;
  for (index_t p : port_nodes) {
    const index_t gid = model.node_map[static_cast<std::size_t>(p)];
    if (gid < 0)
      throw std::invalid_argument("compare_dc: port was eliminated");
    acc += std::abs(reference_drops[static_cast<std::size_t>(p)] -
                    reduced_solution.drops[static_cast<std::size_t>(gid)]);
  }
  e.err_volts = acc / static_cast<double>(port_nodes.size());
  e.rel = max_drop > 0.0 ? e.err_volts / max_drop : 0.0;
  return e;
}

SolutionError compare_transient(const TransientResult& reference,
                                const TransientResult& reduced,
                                double reference_max_drop) {
  SolutionError e;
  if (reference.series.empty() ||
      reference.series.size() != reduced.series.size())
    throw std::invalid_argument("compare_transient: probe sets differ");
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t p = 0; p < reference.series.size(); ++p) {
    const auto& a = reference.series[p];
    const auto& b = reduced.series[p];
    if (a.size() != b.size())
      throw std::invalid_argument("compare_transient: step counts differ");
    for (std::size_t k = 0; k < a.size(); ++k) {
      acc += std::abs(a[k] - b[k]);
      ++count;
    }
  }
  e.err_volts = count ? acc / static_cast<double>(count) : 0.0;
  e.rel = reference_max_drop > 0.0 ? e.err_volts / reference_max_drop : 0.0;
  return e;
}

}  // namespace er
