// Tests for pg: model validation, generator structure, netlist round trip,
// DC analysis (KCL, reduction accuracy), transient analysis (analytic RC
// reference, original vs reduced), incremental analysis (cache equivalence).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "chol/cholesky.hpp"
#include "graph/components.hpp"
#include "pg/analysis.hpp"
#include "pg/generator.hpp"
#include "pg/incremental.hpp"
#include "pg/netlist.hpp"
#include "pg/power_grid.hpp"
#include "sparse/dense.hpp"

namespace er {
namespace {

PgGeneratorOptions small_grid_opts(std::uint64_t seed = 1) {
  PgGeneratorOptions o;
  o.nx = 16;
  o.ny = 16;
  o.layers = 2;
  o.pads_per_side = 2;
  o.load_density = 0.1;
  o.seed = seed;
  return o;
}

TEST(PowerGrid, LoadWaveform) {
  CurrentLoad l;
  l.dc = 1.0;
  l.pulse = 2.0;
  l.period = 10.0;
  l.duty = 0.3;
  EXPECT_DOUBLE_EQ(l.current_at(0.0), 3.0);   // pulse on
  EXPECT_DOUBLE_EQ(l.current_at(2.9), 3.0);   // still on
  EXPECT_DOUBLE_EQ(l.current_at(3.1), 1.0);   // off
  EXPECT_DOUBLE_EQ(l.current_at(12.9), 3.0);  // periodic
}

TEST(PowerGrid, NetworkConversion) {
  PowerGrid pg;
  pg.num_nodes = 3;
  pg.resistors.push_back({0, 1, 2.0});
  pg.resistors.push_back({1, 2, 4.0});
  pg.pads.push_back({0, 100.0});
  const ConductanceNetwork net = pg.to_network();
  EXPECT_EQ(net.num_nodes(), 3);
  EXPECT_DOUBLE_EQ(net.graph.edges()[0].weight, 0.5);
  EXPECT_DOUBLE_EQ(net.graph.edges()[1].weight, 0.25);
  EXPECT_DOUBLE_EQ(net.shunts[0], 100.0);
}

TEST(PowerGrid, PortMaskCoversPadsAndLoads) {
  PowerGrid pg;
  pg.num_nodes = 5;
  pg.resistors.push_back({0, 1, 1.0});
  pg.pads.push_back({0, 10.0});
  pg.loads.push_back({3, 1e-3, 0, 1e-9, 0.5});
  const auto mask = pg.port_mask();
  EXPECT_TRUE(mask[0]);
  EXPECT_FALSE(mask[1]);
  EXPECT_TRUE(mask[3]);
  EXPECT_EQ(pg.port_nodes().size(), 2u);
}

TEST(Generator, ProducesValidConnectedGrid) {
  const PowerGrid pg = generate_power_grid(small_grid_opts());
  EXPECT_TRUE(pg.validate());
  EXPECT_TRUE(is_connected(pg.to_network().graph));
  EXPECT_FALSE(pg.pads.empty());
  EXPECT_FALSE(pg.loads.empty());
  EXPECT_EQ(pg.capacitors.size(), static_cast<std::size_t>(pg.num_nodes));
}

TEST(Generator, PresetSizesIncrease) {
  index_t prev = 0;
  for (int idx : {2, 3, 6}) {
    const PgGeneratorOptions o = ibmpg_like_preset(idx, 0.2);
    const PowerGrid pg = generate_power_grid(o);
    EXPECT_GT(pg.num_nodes, prev);
    prev = pg.num_nodes;
  }
}

TEST(Generator, DeterministicForSeed) {
  const PowerGrid a = generate_power_grid(small_grid_opts(5));
  const PowerGrid b = generate_power_grid(small_grid_opts(5));
  ASSERT_EQ(a.resistors.size(), b.resistors.size());
  for (std::size_t i = 0; i < a.resistors.size(); ++i)
    EXPECT_DOUBLE_EQ(a.resistors[i].resistance, b.resistors[i].resistance);
}

TEST(Netlist, RoundTrip) {
  const PowerGrid pg = generate_power_grid(small_grid_opts(7));
  std::stringstream ss;
  write_netlist(pg, ss);
  const PowerGrid back = read_netlist(ss);
  EXPECT_EQ(back.num_nodes, pg.num_nodes);
  ASSERT_EQ(back.resistors.size(), pg.resistors.size());
  ASSERT_EQ(back.loads.size(), pg.loads.size());
  ASSERT_EQ(back.pads.size(), pg.pads.size());
  for (std::size_t i = 0; i < pg.resistors.size(); ++i) {
    EXPECT_EQ(back.resistors[i].a, pg.resistors[i].a);
    EXPECT_EQ(back.resistors[i].b, pg.resistors[i].b);
    EXPECT_NEAR(back.resistors[i].resistance, pg.resistors[i].resistance,
                1e-6 * pg.resistors[i].resistance);
  }
}

TEST(Netlist, ParsesHandWrittenDeck) {
  std::stringstream ss(R"(* tiny grid
R1 0 1 2.0
R2 1 2 2.0
C1 1 0 1e-15
I1 2 0 1e-3
V1 0 0 1.8 100.0
.end)");
  const PowerGrid pg = read_netlist(ss);
  EXPECT_EQ(pg.num_nodes, 3);
  EXPECT_EQ(pg.resistors.size(), 2u);
  EXPECT_DOUBLE_EQ(pg.vdd, 1.8);
  EXPECT_DOUBLE_EQ(pg.pads[0].conductance, 100.0);
}

TEST(Netlist, RejectsMalformedInput) {
  std::stringstream bad1("R1 0 0 1.0\n");
  EXPECT_THROW(read_netlist(bad1), std::runtime_error);
  std::stringstream bad2("R1 0 1 -1.0\n");
  EXPECT_THROW(read_netlist(bad2), std::runtime_error);
  std::stringstream bad3("X1 0 1 1.0\n");
  EXPECT_THROW(read_netlist(bad3), std::runtime_error);
  // Valid but for the first node id: 2^32 + 1 would narrow to node 1, and
  // 2^31 - 1 would overflow max id + 1.
  std::stringstream wide("R0 4294967297 2 1.0\nV0 1 0 1.0\n");
  EXPECT_THROW(read_netlist(wide), std::runtime_error);
  std::stringstream top("R0 2147483647 2 1.0\nV0 1 0 1.0\n");
  EXPECT_THROW(read_netlist(top), std::runtime_error);
}

TEST(DcAnalysis, TwoResistorDivider) {
  // pad --1ohm-- node1 --1ohm-- node2 with 1A draw at node2:
  // drop(node2) = I*(Rpad + R1 + R2) with Rpad = 1/g.
  PowerGrid pg;
  pg.num_nodes = 3;
  pg.resistors.push_back({0, 1, 1.0});
  pg.resistors.push_back({1, 2, 1.0});
  pg.pads.push_back({0, 1000.0});
  pg.loads.push_back({2, 1.0, 0, 1e-9, 0.5});
  const DcSolution sol = solve_dc(pg.to_network(), pg.load_vector(0.0));
  EXPECT_NEAR(sol.drops[2], 1.0 * (1e-3 + 1.0 + 1.0), 1e-9);
  EXPECT_NEAR(sol.drops[1], 1.0 * (1e-3 + 1.0), 1e-9);
  EXPECT_NEAR(sol.drops[0], 1e-3, 1e-9);
}

TEST(DcAnalysis, KclHolds) {
  // Net current through every non-load node is zero: G d = J exactly.
  const PowerGrid pg = generate_power_grid(small_grid_opts(9));
  const ConductanceNetwork net = pg.to_network();
  const auto j = pg.load_vector(0.0);
  const DcSolution sol = solve_dc(net, j);
  const auto residual = net.system_matrix().multiply(sol.drops);
  for (index_t v = 0; v < pg.num_nodes; ++v)
    EXPECT_NEAR(residual[static_cast<std::size_t>(v)],
                j[static_cast<std::size_t>(v)], 1e-9);
}

TEST(DcAnalysis, DropsAreNonnegative) {
  // With current draws only, every node sits at or below Vdd.
  const PowerGrid pg = generate_power_grid(small_grid_opts(10));
  const DcSolution sol = solve_dc(pg.to_network(), pg.load_vector(0.0));
  for (real_t d : sol.drops) EXPECT_GE(d, -1e-12);
}

TEST(DcAnalysis, ReducedModelMatchesFull) {
  const PowerGrid pg = generate_power_grid(small_grid_opts(11));
  const ConductanceNetwork net = pg.to_network();
  const auto j = pg.load_vector(0.0);
  const DcSolution full = solve_dc(net, j);

  ReductionOptions ropts;
  ropts.num_blocks = 4;
  ropts.sparsify_quality = 6.0;
  const ReducedModel m = reduce_network(net, pg.port_mask(), ropts);
  const DcSolution red = solve_dc(m.network, map_injections(m, j));
  const SolutionError err = compare_dc(full.drops, red, m, pg.port_nodes());
  EXPECT_LT(err.rel, 0.05);
}

TEST(Transient, MatchesAnalyticRcDecay) {
  // Single node: pad conductance g to supply, cap C, constant load I.
  // d(t) = I/g * (1 - exp(-g t / C)) from rest. Backward Euler converges to
  // this with O(h) error.
  PowerGrid pg;
  pg.num_nodes = 2;
  pg.resistors.push_back({0, 1, 1e-3});  // tie node 1 tightly to the pad node
  pg.pads.push_back({0, 1.0});           // g = 1
  pg.capacitors.push_back({1, 1.0});     // C = 1
  pg.loads.push_back({1, 1.0, 0, 1e9, 0.0});  // I = 1, no pulse

  TransientOptions topts;
  topts.step = 1e-3;
  topts.steps = 2000;  // t_end = 2
  const TransientResult res =
      run_transient(pg.to_network(), pg.capacitance_vector(), pg.loads, topts,
                    {1});
  const real_t t_end = topts.step * topts.steps;
  const real_t analytic = 1.0 * (1.0 - std::exp(-t_end));
  EXPECT_NEAR(res.series[0].back(), analytic, 5e-3);
}

TEST(Transient, SettlesToDcUnderConstantLoad) {
  PowerGrid pg = generate_power_grid(small_grid_opts(12));
  for (auto& l : pg.loads) l.pulse = 0.0;  // constant loads
  const ConductanceNetwork net = pg.to_network();

  TransientOptions topts;
  topts.step = 5e-10;  // ~25 tau for these caps
  topts.steps = 200;
  const auto ports = pg.port_nodes();
  const TransientResult res =
      run_transient(net, pg.capacitance_vector(), pg.loads, topts, ports);

  const DcSolution dc = solve_dc(net, pg.load_vector(0.0));
  for (std::size_t p = 0; p < ports.size(); ++p)
    EXPECT_NEAR(res.series[p].back(),
                dc.drops[static_cast<std::size_t>(ports[p])], 1e-4);
}

TEST(Transient, ProbeSeriesBitwiseEqualToSolveLoop) {
  const PowerGrid pg = generate_power_grid(small_grid_opts(14));
  const ConductanceNetwork net = pg.to_network();
  const std::vector<real_t> caps = pg.capacitance_vector();
  TransientOptions topts;
  topts.step = 2e-11;
  topts.steps = 60;
  // Every node is a probe, so a difference anywhere in d shows.
  std::vector<index_t> probes(static_cast<std::size_t>(net.num_nodes()));
  for (index_t v = 0; v < net.num_nodes(); ++v) probes[static_cast<std::size_t>(v)] = v;
  const TransientResult res = run_transient(net, caps, pg.loads, topts, probes);

  // The loop as an original-space solve per step: G + C/h, d = solve(rhs).
  const index_t n = net.num_nodes();
  TripletMatrix diag(n, n);
  for (index_t v = 0; v < n; ++v)
    if (caps[static_cast<std::size_t>(v)] != 0.0)
      diag.add(v, v, caps[static_cast<std::size_t>(v)] / topts.step);
  const CholFactor f = cholesky(net.system_matrix().add(CscMatrix::from_triplets(diag)));
  std::vector<real_t> d(static_cast<std::size_t>(n), 0.0);
  std::vector<real_t> rhs(static_cast<std::size_t>(n));
  ASSERT_EQ(res.series.size(), probes.size());
  int mismatches = 0;
  for (int k = 1; k <= topts.steps; ++k) {
    const real_t time = static_cast<real_t>(k) * topts.step;
    std::fill(rhs.begin(), rhs.end(), 0.0);
    for (const auto& load : pg.loads)
      rhs[static_cast<std::size_t>(load.node)] += load.current_at(time);
    for (index_t v = 0; v < n; ++v)
      rhs[static_cast<std::size_t>(v)] += caps[static_cast<std::size_t>(v)] / topts.step *
                                          d[static_cast<std::size_t>(v)];
    d = f.solve(rhs);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      const real_t want = d[static_cast<std::size_t>(probes[p])];
      const real_t got = res.series[p][static_cast<std::size_t>(k - 1)];
      if (std::memcmp(&got, &want, sizeof(real_t)) != 0 && mismatches++ == 0)
        ADD_FAILURE() << "node " << p << " step " << k << ": " << got << " vs " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(std::abs(res.series.front().back()), 0.0);
}

TEST(Transient, ReducedModelTracksOriginal) {
  const PowerGrid pg = generate_power_grid(small_grid_opts(13));
  const ConductanceNetwork net = pg.to_network();
  const auto ports = pg.port_nodes();

  TransientOptions topts;
  topts.step = 2e-11;
  topts.steps = 120;
  const TransientResult full =
      run_transient(net, pg.capacitance_vector(), pg.loads, topts, ports);

  ReductionOptions ropts;
  ropts.num_blocks = 4;
  ropts.sparsify_quality = 6.0;
  const ReducedModel m = reduce_network(net, pg.port_mask(), ropts);
  std::vector<index_t> red_ports;
  for (index_t p : ports)
    red_ports.push_back(m.node_map[static_cast<std::size_t>(p)]);
  const TransientResult red = run_transient(
      m.network, map_capacitances(m, pg.capacitance_vector()),
      map_loads(m, pg.loads), topts, red_ports);

  double max_drop = 0.0;
  for (const auto& s : full.series)
    for (real_t v : s) max_drop = std::max(max_drop, std::abs(v));
  const SolutionError err = compare_transient(full, red, max_drop);
  EXPECT_LT(err.rel, 0.05);
}

TEST(Transient, CapacitanceMappingConservesTotal) {
  const PowerGrid pg = generate_power_grid(small_grid_opts(14));
  const ConductanceNetwork net = pg.to_network();
  ReductionOptions ropts;
  ropts.num_blocks = 4;
  const ReducedModel m = reduce_network(net, pg.port_mask(), ropts);
  const auto full_caps = pg.capacitance_vector();
  const auto red_caps = map_capacitances(m, full_caps);
  real_t total_full = 0.0, total_red = 0.0;
  for (real_t c : full_caps) total_full += c;
  for (real_t c : red_caps) total_red += c;
  EXPECT_NEAR(total_red, total_full, 1e-12 * total_full + 1e-20);
}

TEST(Incremental, ModificationScalesOnlyDirtyBlocks) {
  const PowerGrid pg = generate_power_grid(small_grid_opts(15));
  const ConductanceNetwork net = pg.to_network();
  ReductionOptions ropts;
  ropts.num_blocks = 4;
  const BlockStructure st = build_block_structure(net, pg.port_mask(), ropts);
  GridModification mod;
  mod.dirty_blocks = {1};
  mod.resistance_scale = 2.0;
  const ConductanceNetwork modified = apply_modification(net, st, mod);
  ASSERT_EQ(modified.graph.num_edges(), net.graph.num_edges());
  for (std::size_t e = 0; e < net.graph.num_edges(); ++e) {
    const Edge& a = net.graph.edges()[e];
    const Edge& b = modified.graph.edges()[e];
    const bool dirty = st.block_of[static_cast<std::size_t>(a.u)] == 1 &&
                       st.block_of[static_cast<std::size_t>(a.v)] == 1;
    if (dirty)
      EXPECT_NEAR(b.weight, a.weight / 2.0, 1e-15);
    else
      EXPECT_DOUBLE_EQ(b.weight, a.weight);
  }
}

TEST(Incremental, UpdateMatchesFreshReduction) {
  // Incremental update must give the same reduced model as reducing the
  // modified grid from scratch with the same partition and seeds.
  const PowerGrid pg = generate_power_grid(small_grid_opts(16));
  const ConductanceNetwork net = pg.to_network();
  ReductionOptions ropts;
  ropts.num_blocks = 4;
  ropts.backend = ErBackend::kExact;

  IncrementalReducer inc(net, pg.port_mask(), ropts);
  const GridModification mod =
      random_modification(inc.structure().num_blocks, 0.25, 1.5, 3);
  const ConductanceNetwork modified =
      apply_modification(net, inc.structure(), mod);
  const ReducedModel& updated = inc.update(modified, mod.dirty_blocks);

  // Fresh full reduction over the same structure.
  std::vector<BlockReduced> blocks;
  for (index_t b = 0; b < inc.structure().num_blocks; ++b)
    blocks.push_back(
        reduce_block(modified, pg.port_mask(), inc.structure(), b, ropts));
  const ReducedModel fresh = stitch_blocks(modified, inc.structure(), blocks);

  ASSERT_EQ(updated.network.num_nodes(), fresh.network.num_nodes());
  ASSERT_EQ(updated.network.graph.num_edges(), fresh.network.graph.num_edges());
  for (std::size_t e = 0; e < fresh.network.graph.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(updated.network.graph.edges()[e].weight,
                     fresh.network.graph.edges()[e].weight);
  }
  EXPECT_TRUE(models_identical(updated, fresh));
}

TEST(Incremental, RejectedUpdateLeavesStateUnchanged) {
  // A bad dirty block id is rejected before anything is refreshed: the
  // rejected network must not leak into structure(), and the model and
  // revision stay where they were.
  const PowerGrid pg = generate_power_grid(small_grid_opts(21));
  const ConductanceNetwork net = pg.to_network();
  ReductionOptions ropts;
  ropts.num_blocks = 4;
  IncrementalReducer inc(net, pg.port_mask(), ropts);
  const BlockStructure before = inc.structure();
  const ModelPtr model = inc.shared_model();

  // Every edge changes weight, block-internal and cut alike.
  ConductanceNetwork rejected = net;
  Graph g(net.num_nodes());
  for (const Edge& e : net.graph.edges()) g.add_edge(e.u, e.v, 2.0 * e.weight);
  rejected.graph = std::move(g);

  const auto same_edges = [](const std::vector<Edge>& a,
                             const std::vector<Edge>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i].u != b[i].u || a[i].v != b[i].v || a[i].weight != b[i].weight)
        return false;
    return true;
  };
  for (const index_t bad : {index_t{-1}, before.num_blocks}) {
    EXPECT_THROW(inc.update(rejected, {0, bad}), std::out_of_range);
    EXPECT_EQ(inc.revision(), 0u);
    EXPECT_EQ(inc.shared_model(), model);
    const BlockStructure& after = inc.structure();
    EXPECT_TRUE(same_edges(after.cut_edges, before.cut_edges));
    ASSERT_EQ(after.block_edges.size(), before.block_edges.size());
    for (std::size_t b = 0; b < before.block_edges.size(); ++b)
      EXPECT_TRUE(same_edges(after.block_edges[b], before.block_edges[b]))
          << "block " << b;
  }
}

TEST(Incremental, UpdateIsFasterThanInitialReduction) {
  PgGeneratorOptions gopts = small_grid_opts(17);
  gopts.nx = 32;
  gopts.ny = 32;
  const PowerGrid pg = generate_power_grid(gopts);
  const ConductanceNetwork net = pg.to_network();
  ReductionOptions ropts;
  ropts.num_blocks = 8;

  IncrementalReducer inc(net, pg.port_mask(), ropts);
  const GridModification mod =
      random_modification(inc.structure().num_blocks, 0.1, 1.3, 5);
  const ConductanceNetwork modified =
      apply_modification(net, inc.structure(), mod);
  inc.update(modified, mod.dirty_blocks);
  EXPECT_LT(inc.update_seconds(), inc.initial_seconds());
}

TEST(Incremental, ReducedIncrementalSolutionAccurate) {
  const PowerGrid pg = generate_power_grid(small_grid_opts(18));
  const ConductanceNetwork net = pg.to_network();
  ReductionOptions ropts;
  ropts.num_blocks = 4;
  ropts.sparsify_quality = 6.0;

  IncrementalReducer inc(net, pg.port_mask(), ropts);
  const GridModification mod =
      random_modification(inc.structure().num_blocks, 0.25, 1.4, 7);
  const ConductanceNetwork modified =
      apply_modification(net, inc.structure(), mod);
  const ReducedModel& m = inc.update(modified, mod.dirty_blocks);

  const auto j = pg.load_vector(0.0);
  const DcSolution full = solve_dc(modified, j);
  const DcSolution red = solve_dc(m.network, map_injections(m, j));
  const SolutionError err = compare_dc(full.drops, red, m, pg.port_nodes());
  EXPECT_LT(err.rel, 0.05);
}

}  // namespace
}  // namespace er
