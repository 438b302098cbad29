// Serving subsystem tests (DESIGN.md §4): served answers (R and Z) must
// match an independent dense oracle — the pseudo-inverse of G = L +
// diag(shunts) assembled from the model's edges, with no factor code — and
// a full solve_permuted reference; answers must be bit-identical at any
// thread count; and ModelStore's publish protocol must let queries race
// with IncrementalReducer updates — every batch answers exactly against
// the snapshot version it pinned (no torn reads; the concurrent test is
// part of the CI TSan job).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chol/cholesky.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "pg/analysis.hpp"
#include "pg/incremental.hpp"
#include "reduction/pipeline.hpp"
#include "serve/model_store.hpp"
#include "serve/query_frontend.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot.hpp"
#include "serve_test_util.hpp"
#include "sparse/dense.hpp"
#include "util/timer.hpp"

namespace er {
namespace {

// ---------------------------------------------------------------------------
// Dense-oracle property sweep. Each case is a small stitched model (at most
// ~300 reduced nodes). The oracle inverts its dense G by Jacobi
// eigendecomposition (DenseMatrix::symmetric_pseudo_inverse), which shares
// no code with the sparse Cholesky factor the snapshot serves from.
// ---------------------------------------------------------------------------

/// A hand-built stitched model over `g` and `shunts`: reduced node r goes
/// to partition block block_of_reduced[r], and every `eliminate_every`-th
/// original id is an eliminated node (node_map -1) interleaved with the
/// surviving ones.
ModelPtr hand_model(Graph g, std::vector<real_t> shunts,
                    const std::vector<index_t>& block_of_reduced,
                    index_t eliminate_every) {
  ReducedModel m;
  const index_t n = g.num_nodes();
  m.network.graph = std::move(g);
  m.network.shunts = std::move(shunts);
  m.block_kept.resize(static_cast<std::size_t>(
      *std::max_element(block_of_reduced.begin(), block_of_reduced.end()) + 1));
  for (index_t r = 0; r < n; ++r) {
    const index_t b = block_of_reduced[static_cast<std::size_t>(r)];
    if (static_cast<index_t>(m.node_map.size()) % eliminate_every ==
        eliminate_every - 1) {
      m.node_map.push_back(-1);
      m.block_of.push_back(0);
    }
    m.representative.push_back(static_cast<index_t>(m.node_map.size()));
    m.node_map.push_back(r);
    m.block_of.push_back(b);
    m.block_kept[static_cast<std::size_t>(b)].push_back(r);
  }
  m.stats.reduced_nodes = n;
  return std::make_shared<const ReducedModel>(std::move(m));
}

/// hand_model with the reduced nodes dealt round-robin into `blocks`
/// blocks.
ModelPtr hand_model(Graph g, std::vector<real_t> shunts, index_t blocks,
                    index_t eliminate_every) {
  std::vector<index_t> block(static_cast<std::size_t>(g.num_nodes()));
  for (std::size_t r = 0; r < block.size(); ++r)
    block[r] = static_cast<index_t>(r) % blocks;
  return hand_model(std::move(g), std::move(shunts), block, eliminate_every);
}

/// nx-by-ny grid on nodes [base, base + nx*ny) of `g` with conductances
/// 10^U(-spread, spread).
void add_grid(Graph& g, index_t base, index_t nx, index_t ny, real_t spread,
              Rng& rng) {
  const auto w = [&] { return std::pow(10.0, rng.uniform(-spread, spread)); };
  for (index_t y = 0; y < ny; ++y)
    for (index_t x = 0; x < nx; ++x) {
      const index_t v = base + y * nx + x;
      if (x + 1 < nx) g.add_edge(v, v + 1, w());
      if (y + 1 < ny) g.add_edge(v, v + nx, w());
    }
}

struct OracleCase {
  std::string name;
  ModelPtr model;
  /// Tolerance against the oracle, relative to the magnitude of the
  /// inverse entries an answer is assembled from. At a 1e±8 spread G's
  /// condition number is ~1e16, so every double-precision method is only
  /// good to ~1e-6 there: the oracle, this factor and a dense Cholesky
  /// inverse disagree pairwise by up to ~1.6e-6 of that magnitude.
  real_t tol = 1e-10;
  /// Reduced nodes with an edge into another block, counted by hand
  /// (-1: not checked).
  index_t boundary = -1;
};

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  Rng rng(4242);
  {
    // One grounded 12x12 grid, conductances within one decade.
    Graph g(144);
    add_grid(g, 0, 12, 12, 0.5, rng);
    std::vector<real_t> sh(144, 0.0);
    sh[0] = sh[77] = sh[143] = 25.0;
    cases.push_back({"grid", hand_model(std::move(g), std::move(sh), 4, 5)});
  }
  {
    // Two connected components, each grounded by its own shunt; every
    // block mixes nodes of both.
    Graph g(100 + 64);
    add_grid(g, 0, 10, 10, 0.5, rng);
    add_grid(g, 100, 8, 8, 0.5, rng);
    std::vector<real_t> sh(164, 0.0);
    sh[3] = 10.0;
    sh[150] = 0.5;
    cases.push_back(
        {"two_components", hand_model(std::move(g), std::move(sh), 3, 4)});
  }
  {
    // Parallel edges: a grid's edges added again (some twice) with other
    // weights, in both orientations — conductances in parallel add.
    Graph g(81);
    add_grid(g, 0, 9, 9, 0.5, rng);
    const std::vector<Edge> once = g.edges();
    for (std::size_t i = 0; i < once.size(); ++i) {
      g.add_edge(once[i].v, once[i].u, rng.uniform(0.5, 2.0));
      if (i % 3 == 0) g.add_edge(once[i].u, once[i].v, rng.uniform(0.5, 2.0));
    }
    std::vector<real_t> sh(81, 0.0);
    sh[40] = 3.0;
    cases.push_back(
        {"parallel_edges", hand_model(std::move(g), std::move(sh), 2, 6)});
  }
  for (const int spread : {4, 8}) {
    // Conductances and shunts log-uniform over 1e±spread.
    Graph g(64);
    add_grid(g, 0, 8, 8, spread, rng);
    std::vector<real_t> sh(64, 0.0);
    sh[9] = std::pow(10.0, rng.uniform(-spread, spread));
    sh[54] = std::pow(10.0, rng.uniform(-spread, spread));
    cases.push_back({"spread_1e" + std::to_string(spread),
                     hand_model(std::move(g), std::move(sh), 4, 7),
                     spread == 8 ? 1e-5 : 1e-9});
  }
  {
    // A block of one reduced node: grid node (3, 4) alone, the rest of the
    // 10x10 grid split at x = 5.
    Graph g(100);
    add_grid(g, 0, 10, 10, 0.5, rng);
    std::vector<real_t> sh(100, 0.0);
    sh[0] = sh[99] = 4.0;
    std::vector<index_t> block(100);
    for (index_t v = 0; v < 100; ++v) block[static_cast<std::size_t>(v)] = v % 10 < 5 ? 0 : 1;
    block[43] = 2;
    // Boundary: node 43, its neighbors 33, 42, 53 and the columns x = 4
    // (holding its neighbor 44) and x = 5.
    cases.push_back(
        {"single_node_block", hand_model(std::move(g), std::move(sh), block, 5), 1e-10, 24});
  }
  {
    // A block whose every node is a boundary node: the grid column x = 4
    // between the blocks x < 4 and x > 4.
    Graph g(90);
    add_grid(g, 0, 9, 10, 0.5, rng);
    std::vector<real_t> sh(90, 0.0);
    sh[13] = 2.0;
    std::vector<index_t> block(90);
    for (index_t v = 0; v < 90; ++v) {
      const index_t x = v % 9;
      block[static_cast<std::size_t>(v)] = x < 4 ? 0 : x == 4 ? 1 : 2;
    }
    // Boundary: the columns x = 3, 4 and 5.
    cases.push_back(
        {"all_boundary_block", hand_model(std::move(g), std::move(sh), block, 4), 1e-10, 30});
  }
  {
    // A model the reduction pipeline produced: eliminated nodes, merged
    // non-port nodes and sparsified blocks.
    const ServeCase c = make_case(16, 16, 40, 131);
    ReductionOptions opts;
    opts.num_blocks = 6;
    cases.push_back(
        {"reduced_grid", reduce_network_frozen(c.net, c.ports, opts)});
  }
  return cases;
}

/// Dense G = L + diag(shunts) from the model's edge list.
DenseMatrix dense_system(const ReducedModel& m) {
  const index_t n = m.network.num_nodes();
  DenseMatrix g(n, n);
  for (const Edge& e : m.network.graph.edges()) {
    g(e.u, e.u) += e.weight;
    g(e.v, e.v) += e.weight;
    g(e.u, e.v) -= e.weight;
    g(e.v, e.u) -= e.weight;
  }
  for (index_t v = 0; v < n; ++v)
    g(v, v) += m.network.shunts[static_cast<std::size_t>(v)];
  return g;
}

TEST(ServedAnswers, MatchDenseOracleProperties) {
  for (const OracleCase& oc : oracle_cases()) {
    SCOPED_TRACE(oc.name);
    const ReducedModel& m = *oc.model;
    const index_t n = m.network.num_nodes();
    ASSERT_LE(n, 300);
    // G is SPD (every component carries a shunt): keep every eigenvalue.
    const DenseMatrix gi = dense_system(m).symmetric_pseudo_inverse(0.0);
    const auto inv = [&](index_t a, index_t b) { return gi(a, b); };

    const auto snap = ModelSnapshot::build(oc.model);
    if (oc.boundary >= 0) {
      EXPECT_EQ(snap->num_boundary_nodes(), oc.boundary);
    }
    std::vector<index_t> kept, eliminated;
    for (std::size_t v = 0; v < m.node_map.size(); ++v)
      (m.node_map[v] >= 0 ? kept : eliminated)
          .push_back(static_cast<index_t>(v));
    ASSERT_FALSE(eliminated.empty());

    // Random pairs of both kinds, p == q pairs, and eliminated or
    // out-of-range endpoints on either side.
    std::vector<PortQuery> batch = mixed_batch(kept, 400, 11);
    for (std::size_t i = 0; i < kept.size(); i += 9)
      for (const QueryKind kind :
           {QueryKind::kResistance, QueryKind::kResponse})
        batch.push_back({kind, kept[i], kept[i], {}});
    Rng rng(7);
    const auto pick = [&rng](const std::vector<index_t>& from) {
      return from[static_cast<std::size_t>(
          rng.uniform_int(static_cast<index_t>(from.size())))];
    };
    for (int t = 0; t < 8; ++t) {
      const QueryKind kind =
          t % 2 ? QueryKind::kResponse : QueryKind::kResistance;
      batch.push_back({kind, pick(eliminated), pick(kept), {}});
      batch.push_back({kind, pick(kept), pick(eliminated), {}});
    }
    batch.push_back({QueryKind::kResistance, -1, kept[0], {}});
    batch.push_back({QueryKind::kResponse, kept[0],
                     static_cast<index_t>(m.node_map.size()), {}});

    std::vector<QueryStatus> statuses;
    AnswerContext ctx;
    ctx.statuses = &statuses;
    const std::vector<real_t> got =
        QueryFrontEnd::answer_on(*snap, batch, ctx);
    ASSERT_EQ(got.size(), batch.size());
    ASSERT_EQ(statuses.size(), batch.size());
    std::size_t checked = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const PortQuery& query = batch[i];
      SCOPED_TRACE("query " + std::to_string(i));
      const index_t p = snap->reduced_id(query.p);
      const index_t q = snap->reduced_id(query.q);
      if (p < 0 || q < 0) {
        EXPECT_TRUE(std::isnan(got[i]));
        EXPECT_EQ(statuses[i], QueryStatus::kInvalid);
        continue;
      }
      EXPECT_EQ(statuses[i], QueryStatus::kOk);
      if (query.kind == QueryKind::kResistance) {
        if (p == q) {
          EXPECT_EQ(got[i], 0.0);  // exactly, not to roundoff
          continue;
        }
        const real_t want = inv(p, p) + inv(q, q) - inv(p, q) - inv(q, p);
        const real_t mag = inv(p, p) + inv(q, q) + 2.0 * std::abs(inv(p, q));
        EXPECT_NEAR(got[i], want, oc.tol * mag);
        EXPECT_GT(got[i], 0.0);
      } else {
        EXPECT_NEAR(got[i], inv(q, p),
                    oc.tol * std::sqrt(inv(p, p) * inv(q, q)));
      }
      ++checked;
    }
    EXPECT_GT(checked, 300u);
  }
}

TEST(ModelSnapshot, ResponseMatchesDcSolve) {
  const ServeCase c = make_case(18, 18, 40, 73);
  ReductionOptions opts;
  opts.num_blocks = 6;
  const ModelPtr model = reduce_network_frozen(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(model);

  // Z(p, q) is column p of G^{-1}: inject a unit current at reduced p and
  // read the DC voltage drops.
  const index_t p_orig = kept_originals(*model).front();
  const index_t p_red = snap->reduced_id(p_orig);
  std::vector<real_t> injection(
      static_cast<std::size_t>(model->network.num_nodes()), 0.0);
  injection[static_cast<std::size_t>(p_red)] = 1.0;
  const DcSolution dc = solve_dc(model->network, injection);

  ModelSnapshot::Workspace ws;
  for (index_t q = 0; q < model->network.num_nodes(); q += 7) {
    const real_t z = snap->response(p_red, q, ws);
    EXPECT_NEAR(z, dc.drops[static_cast<std::size_t>(q)],
                1e-8 * (1.0 + std::abs(z)))
        << "response at reduced node " << q;
  }

  // Internal consistency: R(p,q) = Z(p,p) - Z(p,q) - Z(q,p) + Z(q,q).
  const index_t q_red = snap->reduced_id(kept_originals(*model).back());
  const real_t r = snap->resistance(p_red, q_red, ws);
  const real_t via_z = snap->response(p_red, p_red, ws) -
                       snap->response(p_red, q_red, ws) -
                       snap->response(q_red, p_red, ws) +
                       snap->response(q_red, q_red, ws);
  EXPECT_NEAR(r, via_z, 1e-9 * (1.0 + std::abs(r)));
}

TEST(ModelSnapshot, ReachSolvesMatchSolvePermutedReference) {
  // Queries are forward-only reach solves; the reference is a full forward
  // + backward solve_permuted on a separate factor of the stitched system.
  const ServeCase c = make_case(24, 24, 64, 83);
  ReductionOptions opts;
  opts.num_blocks = 8;
  const ModelPtr model = reduce_network_frozen(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(model);
  ASSERT_GT(snap->num_boundary_nodes(), 0);
  const CholFactor g = cholesky(model->network.system_matrix());
  const index_t n = g.n;
  const auto solve = [&](index_t p, real_t wp, index_t q, real_t wq) {
    std::vector<real_t> x(static_cast<std::size_t>(n), 0.0);
    x[static_cast<std::size_t>(g.inv_perm[static_cast<std::size_t>(p)])] += wp;
    x[static_cast<std::size_t>(g.inv_perm[static_cast<std::size_t>(q)])] += wq;
    g.solve_permuted(x);
    return x;
  };
  const auto at = [&](const std::vector<real_t>& x, index_t v) {
    return x[static_cast<std::size_t>(g.inv_perm[static_cast<std::size_t>(v)])];
  };

  Rng rng(84);
  ModelSnapshot::Workspace ws;
  for (int t = 0; t < 200; ++t) {
    const index_t p = rng.uniform_int(n);
    const index_t q = rng.uniform_int(n);
    SCOPED_TRACE("p=" + std::to_string(p) + " q=" + std::to_string(q));
    const std::vector<real_t> xr = solve(p, 1.0, q, -1.0);
    const real_t r_ref = p == q ? 0.0 : at(xr, p) - at(xr, q);
    const std::vector<real_t> xz = solve(p, 1.0, p, 0.0);
    const real_t z_ref = at(xz, q);
    EXPECT_NEAR(snap->resistance(p, q, ws), r_ref, 1e-12 * std::abs(r_ref));
    EXPECT_NEAR(snap->response(p, q, ws), z_ref, 1e-11 * std::abs(z_ref));
  }
}

TEST(ModelSnapshot, ResistanceIsNeverNegative) {
  // Every exact resistance is the squared norm of a reach solve, so
  // roundoff cannot make it negative — not even across a single edge of a
  // stiff grid.
  const ServeCase c = make_case(20, 20, 48, 89);
  ReductionOptions opts;
  opts.num_blocks = 6;
  const ModelPtr model = reduce_network_frozen(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(model);
  ModelSnapshot::Workspace ws;
  for (const Edge& e : model->network.graph.edges())
    EXPECT_GE(snap->resistance(e.u, e.v, ws), 0.0);
  for (index_t v = 0; v < model->network.num_nodes(); v += 5)
    EXPECT_EQ(snap->resistance(v, v, ws), 0.0);
}

TEST(QueryFrontEnd, BitIdenticalAcrossThreadCounts) {
  const ServeCase c = make_case(24, 24, 64, 79);
  ReductionOptions opts;
  opts.num_blocks = 8;
  const ModelPtr model = reduce_network_frozen(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(model);
  const auto batch = mixed_batch(kept_originals(*model), 1500, 5);

  const auto serial = QueryFrontEnd::answer_on(*snap, batch);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    AnswerContext ctx;
    ctx.pool = &pool;
    const auto par = QueryFrontEnd::answer_on(*snap, batch, ctx);
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      ASSERT_EQ(serial[i], par[i]) << "query " << i;  // bit-identical
  }
}

TEST(QueryFrontEnd, InvalidQueriesAnswerNaN) {
  const ServeCase c = make_case(16, 16, 24, 83);
  ReductionOptions opts;
  opts.num_blocks = 4;
  const ModelPtr model = reduce_network_frozen(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(model);

  index_t eliminated = -1;
  for (std::size_t v = 0; v < model->node_map.size(); ++v)
    if (model->node_map[v] < 0) {
      eliminated = static_cast<index_t>(v);
      break;
    }
  ASSERT_GE(eliminated, 0);
  const index_t valid = kept_originals(*model).front();

  const std::vector<PortQuery> batch{
      {QueryKind::kResistance, eliminated, valid, {}},
      {QueryKind::kResponse, valid, eliminated, {}},
      {QueryKind::kResistance, -5, valid, {}},
      {QueryKind::kResistance, valid, valid, {}},
  };
  obs::MetricsRegistry reg;
  const auto out = QueryFrontEnd::answer_on(*snap, batch, {nullptr, &reg});
  EXPECT_TRUE(std::isnan(out[0]));
  EXPECT_TRUE(std::isnan(out[1]));
  EXPECT_TRUE(std::isnan(out[2]));
  EXPECT_EQ(out[3], 0.0);  // same node: zero resistance
  const obs::Labels mode{{"mode", "sharded"}};
  EXPECT_EQ(series_value(reg, "er_serve_invalid_queries_total", mode), 3);
  EXPECT_EQ(series_value(reg, "er_serve_queries_total", mode), 4);
}

// Deadline-expired queries answer NaN with QueryStatus::kDeadlineMiss
// without blocking the rest of the batch. Expiry is a pure function of
// (policy.deadline_us, AnswerContext::queue_wait_us), never of a clock read.
TEST(QueryFrontEnd, ExpiredDeadlinesMissWithoutBlockingTheBatch) {
  const ServeCase c = make_case(18, 18, 40, 419);
  ReductionOptions opts;
  opts.num_blocks = 6;
  const ModelPtr model = reduce_network_frozen(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(model);
  const auto kept = kept_originals(*model);

  const auto plain = mixed_batch(kept, 60, 17);
  std::vector<PortQuery> batch = plain;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i % 3 == 0) batch[i].policy.deadline_us = 10;        // expires
    if (i % 3 == 1) batch[i].policy.deadline_us = 1'000'000; // never does
  }

  obs::MetricsRegistry reg;
  const auto reference =
      QueryFrontEnd::answer_on(*snap, plain, {nullptr, &reg});

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::optional<ThreadPool> pool;
    if (threads > 1) pool.emplace(threads, &reg);
    const std::int64_t missed_before =
        series_value(reg, "er_policy_deadline_miss_total");
    std::vector<QueryStatus> statuses;
    AnswerContext ctx;
    ctx.pool = pool ? &*pool : nullptr;
    ctx.registry = &reg;
    ctx.queue_wait_us = 50;  // injected, not measured: 10 <= 50 expires
    ctx.statuses = &statuses;
    const auto answers = QueryFrontEnd::answer_on(*snap, batch, ctx);
    ASSERT_EQ(statuses.size(), batch.size());
    std::size_t misses = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i % 3 == 0) {
        EXPECT_EQ(statuses[i], QueryStatus::kDeadlineMiss) << "query " << i;
        EXPECT_TRUE(std::isnan(answers[i])) << "query " << i;
        ++misses;
      } else {
        // The rest of the batch answers exactly as the deadline-free twin.
        const bool both_nan =
            std::isnan(answers[i]) && std::isnan(reference[i]);
        ASSERT_TRUE(answers[i] == reference[i] || both_nan)
            << "query " << i;
        EXPECT_NE(statuses[i], QueryStatus::kDeadlineMiss) << "query " << i;
      }
    }
    EXPECT_EQ(series_value(reg, "er_policy_deadline_miss_total"),
              missed_before + static_cast<std::int64_t>(misses));
  }

  // With no queue wait, nothing expires (deadline 10us > wait 0).
  const std::int64_t missed_before =
      series_value(reg, "er_policy_deadline_miss_total");
  AnswerContext relaxed_ctx;
  relaxed_ctx.registry = &reg;
  (void)QueryFrontEnd::answer_on(*snap, batch, relaxed_ctx);
  EXPECT_EQ(series_value(reg, "er_policy_deadline_miss_total"),
            missed_before);
}

// Each answer is a function of its own query alone, however the batch
// around it is split into probes and pool tasks: a batch that mixes
// resistances and responses, cache hits and misses, invalid endpoints,
// expired deadlines and p == q answers every query bitwise as the same
// query answered alone, at every pool size, with the cache attached and
// detached.
TEST(QueryFrontEnd, AnswerDoesNotDependOnBatchMates) {
  const ServeCase c = make_case(20, 20, 48, 433);
  ReductionOptions opts;
  opts.num_blocks = 6;
  const ModelPtr model = reduce_network_frozen(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(model, 3);
  const auto kept = kept_originals(*model);
  const auto eliminated = static_cast<index_t>(
      std::find(model->node_map.begin(), model->node_map.end(), -1) -
      model->node_map.begin());
  ASSERT_LT(static_cast<std::size_t>(eliminated), model->node_map.size());

  std::vector<PortQuery> batch = mixed_batch(kept, 48, 29);
  for (std::size_t i = 0; i < batch.size(); i += 5)
    batch[i].policy.deadline_us = 10;  // expires: the queue wait is 50
  const index_t a = kept.front();
  const index_t b = kept.back();
  const std::vector<PortQuery> extra{
      {QueryKind::kResistance, a, a, {}},
      {QueryKind::kResponse, b, b, {}},
      {QueryKind::kResistance, eliminated, a, {}},
      {QueryKind::kResponse, a, eliminated, {}},
      {QueryKind::kResponse, -3, b, {}},
      {QueryKind::kResponse, a, b, {}},
      {QueryKind::kResponse, a, b, {}},  // the same miss twice
      {QueryKind::kResistance, b, a, {}},
  };
  batch.insert(batch.begin() + 7, extra.begin(), extra.end());
  // Every third query is answered once before the batch, so with the
  // cache attached it hits.
  std::vector<PortQuery> warm;
  for (std::size_t i = 0; i < batch.size(); i += 3) warm.push_back(batch[i]);

  const auto answer_alone = [&](const PortQuery& query, QueryStatus* status) {
    std::vector<QueryStatus> statuses;
    AnswerContext ctx;
    ctx.queue_wait_us = 50;
    ctx.statuses = &statuses;
    const real_t value = QueryFrontEnd::answer_on(*snap, {query}, ctx).front();
    *status = statuses.front();
    return value;
  };
  std::vector<real_t> alone(batch.size());
  std::vector<QueryStatus> alone_status(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    alone[i] = answer_alone(batch[i], &alone_status[i]);
  EXPECT_EQ(std::count(alone_status.begin(), alone_status.end(),
                       QueryStatus::kInvalid), 3);
  EXPECT_GT(std::count(alone_status.begin(), alone_status.end(),
                       QueryStatus::kDeadlineMiss), 0);

  const obs::Labels mode{{"mode", "sharded"}};
  for (const int threads : {1, 2, 4}) {
    for (const bool cached : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   (cached ? " cached" : " uncached"));
      obs::MetricsRegistry reg;
      obs::MetricsRegistry cache_reg;
      ResultCache cache(ResultCacheOptions{}, &cache_reg);
      cache.on_publish(snap->version());
      ThreadPool pool(threads);
      AnswerContext ctx;
      ctx.pool = &pool;
      ctx.registry = &reg;
      ctx.queue_wait_us = 50;
      if (cached) {
        ctx.cache = &cache;
        (void)QueryFrontEnd::answer_on(*snap, warm, ctx);
      }
      const std::uint64_t warm_samples =
          histogram_count(reg, "er_query_latency_seconds", mode);
      const std::uint64_t hits_before = cache.hits();
      std::vector<QueryStatus> statuses;
      ctx.statuses = &statuses;
      const auto got = QueryFrontEnd::answer_on(*snap, batch, ctx);
      ASSERT_EQ(got.size(), batch.size());
      ASSERT_EQ(statuses.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(std::memcmp(&got[i], &alone[i], sizeof(real_t)), 0)
            << "query " << i << ": " << got[i] << " vs " << alone[i];
        EXPECT_EQ(statuses[i], alone_status[i]) << "query " << i;
      }
      if (cached) {
        EXPECT_GT(cache.hits(), hits_before);
      }
      // One latency sample per query of the batch.
      EXPECT_EQ(histogram_count(reg, "er_query_latency_seconds", mode),
                warm_samples + batch.size());
    }
  }
}

TEST(ModelStore, PublishPinsInFlightSnapshots) {
  const ServeCase c = make_case(20, 20, 48, 91);
  ReductionOptions opts;
  opts.num_blocks = 8;
  ModelStore store;
  QueryFrontEnd frontend(&store);
  const auto batch_probe = mixed_batch({0}, 0, 0);
  EXPECT_THROW((void)frontend.answer(batch_probe), std::runtime_error);

  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  EXPECT_EQ(store.publish_count(), 1u);
  const SnapshotPtr pinned = store.acquire();
  ASSERT_TRUE(pinned);
  EXPECT_EQ(pinned->version(), 0u);

  const auto batch = mixed_batch(kept_originals(reducer.model()), 200, 11);
  const auto before = QueryFrontEnd::answer_on(*pinned, batch);

  const GridModification mod =
      random_modification(reducer.structure().num_blocks, 0.25, 1.5, 13);
  const ConductanceNetwork modified =
      apply_modification(c.net, reducer.structure(), mod);
  reducer.update(modified, mod.dirty_blocks);
  EXPECT_EQ(store.publish_count(), 2u);
  EXPECT_GT(reducer.publish_seconds(), 0.0);

  // The pinned snapshot is immutable: identical answers after the publish.
  const auto after = QueryFrontEnd::answer_on(*pinned, batch);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    ASSERT_EQ(before[i], after[i]) << "query " << i;

  // New batches see the new version.
  EXPECT_EQ(frontend.answer(batch).snapshot_version, 1u);
}

/// (count, sum) of a global-registry histogram; zeros before it exists.
std::pair<std::uint64_t, double> global_histogram(const std::string& name) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const obs::MetricSnapshot* m = snap.find(name);
  if (!m) return {0, 0.0};
  return {m->histogram.count, m->histogram.sum};
}

TEST(ModelStore, PublishRecordsOrderAndFactorSplit) {
  const ServeCase c = make_case(16, 16, 24, 57);
  ReductionOptions opts;
  opts.num_blocks = 4;
  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  const char* const kNames[3] = {"er_reducer_publish_seconds",
                                 "er_reducer_order_seconds",
                                 "er_reducer_factor_seconds"};
  // Each publish (the attach, then two updates) adds one sample to each
  // series, and the two halves fit inside the publish time.
  for (int publish = 0; publish < 3; ++publish) {
    std::pair<std::uint64_t, double> before[3];
    for (int s = 0; s < 3; ++s) before[s] = global_histogram(kNames[s]);
    if (publish == 0) {
      reducer.attach_store(&store);
    } else {
      const GridModification mod = random_modification(
          reducer.structure().num_blocks, 0.5, 1.4, 60 + publish);
      reducer.update(apply_modification(c.net, reducer.structure(), mod),
                     mod.dirty_blocks);
    }
    double delta[3];
    for (int s = 0; s < 3; ++s) {
      const auto after = global_histogram(kNames[s]);
      EXPECT_EQ(after.first, before[s].first + 1) << kNames[s];
      delta[s] = after.second - before[s].second;
      EXPECT_GE(delta[s], 0.0) << kNames[s];
    }
    EXPECT_LE(delta[1] + delta[2], delta[0]) << "publish " << publish;
    const SnapshotPtr snap = store.acquire();
    EXPECT_LE(snap->order_seconds() + snap->factor_seconds(),
              snap->build_seconds());
  }
  EXPECT_EQ(store.publish_count(), 3u);
}

TEST(ModelStore, VersionAndAgeProbesDisambiguateEmptyStore) {
  // current_version() is optional: version 0 (IncrementalReducer's first
  // revision) is a legitimate published state, distinguishable from an
  // empty store; the age restarts at every publish.
  const ServeCase c = make_case(14, 14, 20, 103);
  ReductionOptions opts;
  opts.num_blocks = 4;
  ModelStore store;
  EXPECT_FALSE(store.has_published());
  EXPECT_FALSE(store.current_version().has_value());
  EXPECT_FALSE(store.current_age_seconds().has_value());

  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  EXPECT_TRUE(store.has_published());
  ASSERT_TRUE(store.current_version().has_value());
  EXPECT_EQ(*store.current_version(), 0u);  // serving v0, store not empty
  ASSERT_TRUE(store.current_age_seconds().has_value());
  EXPECT_GE(*store.current_age_seconds(), 0.0);

  const GridModification mod =
      random_modification(reducer.structure().num_blocks, 0.25, 1.4, 107);
  const ConductanceNetwork modified =
      apply_modification(c.net, reducer.structure(), mod);
  const Timer since_update;
  reducer.update(modified, mod.dirty_blocks);
  ASSERT_TRUE(store.current_version().has_value());
  EXPECT_EQ(*store.current_version(), 1u);
  // The age counts from the new publish, which came after the timer
  // started (read the age first, so the bound is taken later).
  const auto age = store.current_age_seconds();
  ASSERT_TRUE(age.has_value());
  EXPECT_GE(*age, 0.0);
  EXPECT_LE(*age, since_update.seconds());
}

TEST(ModelStore, ZeroCopyPublishAliasesTheReducersModel) {
  // Zero-copy publish (DESIGN.md §4.1): a publish hands the snapshot the
  // reducer's frozen model version by shared_ptr — the snapshot's model
  // *is* the reducer's — and an update builds the next version into a
  // fresh allocation, leaving pinned snapshots untouched.
  const ServeCase c = make_case(16, 16, 24, 109);
  ReductionOptions opts;
  opts.num_blocks = 4;
  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);

  const SnapshotPtr s0 = store.acquire();
  EXPECT_EQ(&s0->model(), &reducer.model());
  EXPECT_EQ(s0->shared_model().get(), reducer.shared_model().get());

  const auto batch = mixed_batch(kept_originals(reducer.model()), 150, 113);
  const auto before = QueryFrontEnd::answer_on(*s0, batch);
  const ModelPtr pinned_model = s0->shared_model();

  const GridModification mod =
      random_modification(reducer.structure().num_blocks, 0.5, 1.3, 127);
  const ConductanceNetwork modified =
      apply_modification(c.net, reducer.structure(), mod);
  reducer.update(modified, mod.dirty_blocks);

  // The new publish aliases the *new* version; the old version lives on
  // for the pinned snapshot, bit-for-bit.
  const SnapshotPtr s1 = store.acquire();
  EXPECT_EQ(&s1->model(), &reducer.model());
  EXPECT_NE(s1->shared_model().get(), s0->shared_model().get());
  EXPECT_EQ(s0->shared_model().get(), pinned_model.get());
  const auto after = QueryFrontEnd::answer_on(*s0, batch);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    ASSERT_EQ(before[i], after[i]) << "query " << i;
}

// The acceptance test for concurrent serving (runs under TSan in CI):
// reader threads answer batches through the ModelStore while the main
// thread runs IncrementalReducer updates that publish new snapshots. Every
// batch must be answered entirely against the snapshot it pinned — the
// answers of version v are precomputed from a deterministic twin reducer,
// so any torn read or cross-version mix shows up as a bitwise mismatch.
TEST(Serving, ConcurrentPublishWhileQuerying) {
  const ServeCase c = make_case(20, 20, 48, 97);
  ReductionOptions opts;
  opts.num_blocks = 8;
  opts.parallel.num_threads = 2;
  constexpr int kUpdates = 3;
  constexpr int kReaders = 4;
  constexpr int kBatchesPerReader = 12;

  // Twin pass: replay the exact update sequence on an unattached reducer
  // and record each version's serial answers (everything is deterministic,
  // so the serving reducer publishes bit-identical snapshots).
  std::vector<PortQuery> batch;
  std::map<std::uint64_t, std::vector<real_t>> reference;
  ModStream stream;
  {
    IncrementalReducer twin(c.net, c.ports, opts);
    batch = mixed_batch(kept_originals(twin.model()), 64, 17);
    reference[0] = QueryFrontEnd::answer_on(
        *ModelSnapshot::build(twin.shared_model()), batch);
    stream = make_mod_stream(c.net, twin.structure(), kUpdates, 0.25, 1.4,
                             100);
    for (int u = 1; u <= kUpdates; ++u) {
      twin.update(stream.nets[static_cast<std::size_t>(u - 1)],
                  stream.mods[static_cast<std::size_t>(u - 1)].dirty_blocks);
      reference[static_cast<std::uint64_t>(u)] = QueryFrontEnd::answer_on(
          *ModelSnapshot::build(twin.shared_model()), batch);
    }
  }

  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  const QueryFrontEnd frontend(&store);

  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> versions_seen{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r)
    readers.emplace_back([&] {
      for (int i = 0; i < kBatchesPerReader; ++i) {
        const Answers got = frontend.answer(batch);
        versions_seen |= std::uint64_t{1} << got.snapshot_version;
        const auto& want = reference.at(got.snapshot_version);
        for (std::size_t j = 0; j < want.size(); ++j)
          if (got.values[j] != want[j]) {
            ++mismatches;
            break;
          }
      }
    });

  for (int u = 1; u <= kUpdates; ++u)
    reducer.update(stream.nets[static_cast<std::size_t>(u - 1)],
                   stream.mods[static_cast<std::size_t>(u - 1)].dirty_blocks);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store.publish_count(),
            static_cast<std::uint64_t>(kUpdates) + 1);
  EXPECT_NE(versions_seen.load(), 0u);
}

// The front-end's figures (er_serve_*, er_query_* — DESIGN.md §6) live
// only in the registry it was given: every batch, query and per-query
// latency sample is counted there, and answer() reports the version the
// batch pinned.
TEST(QueryFrontEnd, RegistryCountsEveryBatchAndQuery) {
  const ServeCase c = make_case(20, 20, 48, 77);
  ReductionOptions opts;
  opts.num_blocks = 6;
  const ModelPtr model = reduce_network_frozen(c.net, c.ports, opts);
  ModelStore store;
  store.publish(ModelSnapshot::build(model, 4));

  obs::MetricsRegistry reg;
  const QueryFrontEnd frontend(&store, &reg);
  const auto kept = kept_originals(*model);
  const Timer wall;
  const Answers a1 = frontend.answer(mixed_batch(kept, 150, 5));
  const Answers a2 = frontend.answer(mixed_batch(kept, 250, 6));
  const double wall_seconds = wall.seconds();
  EXPECT_EQ(a1.values.size(), 150u);
  EXPECT_EQ(a2.values.size(), 250u);
  EXPECT_EQ(a1.snapshot_version, 4u);
  EXPECT_EQ(a2.snapshot_version, 4u);

  // The serve families carry one frozen `mode` label value (DESIGN.md §6).
  const obs::Labels mode{{"mode", "sharded"}};
  EXPECT_EQ(series_value(reg, "er_serve_batches_total", mode), 2);
  EXPECT_EQ(series_value(reg, "er_serve_queries_total", mode), 400);
  // Every endpoint is a kept node.
  EXPECT_EQ(series_value(reg, "er_serve_invalid_queries_total", mode), 0);
  EXPECT_EQ(series_value(reg, "er_serve_cross_block_queries_total", mode),
            -1);  // deleted with the per-block routing

  // Every query records exactly one latency sample; every batch exactly
  // one batch-duration sample, whose total fits in the wall time of both.
  EXPECT_EQ(histogram_count(reg, "er_query_latency_seconds", mode), 400u);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricSnapshot* batch_h =
      snap.find("er_query_batch_seconds", mode);
  ASSERT_NE(batch_h, nullptr);
  EXPECT_EQ(batch_h->histogram.count, 2u);
  EXPECT_GT(batch_h->histogram.sum, 0.0);
  EXPECT_LE(batch_h->histogram.sum, wall_seconds);

  // The store instrumented with its own registry reports its publishes.
  obs::MetricsRegistry store_reg;
  ModelStore counted(&store_reg);
  counted.publish(ModelSnapshot::build(model));
  const obs::MetricsSnapshot store_snap = store_reg.snapshot();
  ASSERT_NE(store_snap.find("er_store_publishes_total"), nullptr);
  EXPECT_EQ(store_snap.find("er_store_publishes_total")->counter,
            counted.publish_count());
  EXPECT_EQ(store_snap.find("er_store_current_version")->gauge,
            static_cast<std::int64_t>(counted.current_version().value()));
}

}  // namespace
}  // namespace er
