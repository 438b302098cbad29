// Microbenchmarks (google-benchmark) backing the §III-C complexity
// analysis: SpMV, orderings, complete factorization (whole grids at 1/2/4
// threads, and block-sized ones), the min-degree order and incomplete
// factorization (grids and com-DBLP-like), Alg. 2 build (grids and
// com-DBLP-like, at 1/2/4 threads), the reach-limited
// forward solve, and per-query cost of the three effective-resistance
// engines.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "approxinv/approx_inverse.hpp"
#include "chol/cholesky.hpp"
#include "chol/ichol.hpp"
#include "effres/approx_chol.hpp"
#include "effres/exact.hpp"
#include "effres/random_projection.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "order/amd.hpp"
#include "order/mindeg.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace er;

Graph bench_graph(index_t side) {
  return grid_2d(side, side, WeightKind::kUniform, 42);
}

void BM_SpMV(benchmark::State& state) {
  const auto side = static_cast<index_t>(state.range(0));
  const Graph g = bench_graph(side);
  const CscMatrix l = grounded_laplacian(g);
  std::vector<real_t> x(static_cast<std::size_t>(l.cols()), 1.0);
  std::vector<real_t> y(static_cast<std::size_t>(l.rows()));
  for (auto _ : state) {
    l.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(l.nnz()));
}
BENCHMARK(BM_SpMV)->Arg(64)->Arg(128)->Arg(256);

// Inputs of the ICT-side rows (the min-degree order and ichol): a grid, or
// the com-DBLP-like social graph of perfbench's paper_offline (BA n = 15 000,
// m = 3). Only the social graph's order ends in the nearly dense hub tail
// where ichol switches to its dense trailing block (and Alg. 2 to its
// dense tail).
CscMatrix grid_input(index_t side) { return grounded_laplacian(bench_graph(side)); }
CscMatrix social_input(index_t) {
  return grounded_laplacian(barabasi_albert(15000, 3, WeightKind::kUnit, 101));
}
using Input = CscMatrix (*)(index_t);

void BM_MinDegOrdering(benchmark::State& state, Input input, index_t side) {
  const CscMatrix l = input(side);
  for (auto _ : state) {
    auto perm = mindeg_order(l);
    benchmark::DoNotOptimize(perm.data());
  }
}
BENCHMARK_CAPTURE(BM_MinDegOrdering, 64, grid_input, 64);
BENCHMARK_CAPTURE(BM_MinDegOrdering, 128, grid_input, 128);
BENCHMARK_CAPTURE(BM_MinDegOrdering, social, social_input, 0);

void BM_AmdOrdering(benchmark::State& state) {
  const auto side = static_cast<index_t>(state.range(0));
  const CscMatrix l = grounded_laplacian(bench_graph(side));
  for (auto _ : state) {
    auto perm = amd_order(l);
    benchmark::DoNotOptimize(perm.data());
  }
}
BENCHMARK(BM_AmdOrdering)->Arg(64)->Arg(128);

// Symbolic and numeric factor of a grid Laplacian; the second argument is
// the pool's thread count (1: the serial pass), so the rows show the
// numeric pass's scaling. The factor is bitwise equal across them.
void BM_CompleteCholesky(benchmark::State& state) {
  const auto side = static_cast<index_t>(state.range(0));
  const CscMatrix l = grounded_laplacian(bench_graph(side));
  const auto perm = amd_order(l);
  ThreadPool pool(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto f = cholesky(l, perm, &pool);
    benchmark::DoNotOptimize(f.values.data());
  }
}
BENCHMARK(BM_CompleteCholesky)
    ->ArgNames({"side", "threads"})
    ->ArgsProduct({{64, 128}, {1, 2, 4}})
    ->UseRealTime();

// 32 independent block-sized (30 x 30 = 900-node) grid factors, the size of
// the reduction's per-block Schur factors: supernodes are narrow there, so
// the factorization's per-supernode overhead shows.
void BM_BlockCholesky(benchmark::State& state) {
  std::vector<CscMatrix> blocks;
  std::vector<std::vector<index_t>> perms;
  for (std::uint64_t b = 0; b < 32; ++b) {
    blocks.push_back(
        grounded_laplacian(grid_2d(30, 30, WeightKind::kUniform, 100 + b)));
    perms.push_back(amd_order(blocks.back()));
  }
  for (auto _ : state) {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      auto f = cholesky(blocks[b], perms[b]);
      benchmark::DoNotOptimize(f.values.data());
    }
  }
}
BENCHMARK(BM_BlockCholesky);

// One single-column reach solve L^{-1} e_j on a grid factor: the kernel
// behind every exact resistance and response query.
void BM_SparseForward(benchmark::State& state) {
  const auto side = static_cast<index_t>(state.range(0));
  const CholFactor f = cholesky(grounded_laplacian(bench_graph(side)));
  ReachWorkspace ws;
  Rng rng(3);
  const real_t one = 1.0;
  for (auto _ : state) {
    const index_t j = rng.uniform_int(f.n);
    f.sparse_forward(&j, &one, 1, ws);
    benchmark::DoNotOptimize(ws.y.data());
  }
}
BENCHMARK(BM_SparseForward)->Arg(128);

void BM_IncompleteCholesky(benchmark::State& state, Input input, index_t side) {
  const CscMatrix l = input(side);
  const auto perm = mindeg_order(l);
  IcholOptions opts;  // droptol 1e-3 (paper setting)
  for (auto _ : state) {
    auto f = ichol(l, perm, opts);
    benchmark::DoNotOptimize(f.values.data());
  }
}
BENCHMARK_CAPTURE(BM_IncompleteCholesky, 64, grid_input, 64);
BENCHMARK_CAPTURE(BM_IncompleteCholesky, 128, grid_input, 128);
BENCHMARK_CAPTURE(BM_IncompleteCholesky, 256, grid_input, 256);
BENCHMARK_CAPTURE(BM_IncompleteCholesky, social, social_input, 0);

// Alg. 2 on the ICT factor of a grid or of com-DBLP-like at 1/2/4 pool
// threads (`threads:T`). Only the social factor ends in the dense hub tail
// that Alg. 2 builds from a packed triangle (~2 000 columns, ~16 MB).
void BM_ApproxInverseBuild(benchmark::State& state, Input input, index_t side) {
  IcholOptions iopts;
  const CholFactor f = ichol(input(side), iopts);
  ThreadPool pool(static_cast<int>(state.range(0)));
  ApproxInverseOptions zopts;
  zopts.pool = &pool;
  for (auto _ : state) {
    auto z = ApproxInverse::build(f, zopts);
    benchmark::DoNotOptimize(z.nnz());
  }
}
void thread_rows(benchmark::internal::Benchmark* b) {
  b->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->UseRealTime();
}
BENCHMARK_CAPTURE(BM_ApproxInverseBuild, 64, grid_input, 64)->Apply(thread_rows);
BENCHMARK_CAPTURE(BM_ApproxInverseBuild, 128, grid_input, 128)->Apply(thread_rows);
BENCHMARK_CAPTURE(BM_ApproxInverseBuild, 256, grid_input, 256)->Apply(thread_rows);
BENCHMARK_CAPTURE(BM_ApproxInverseBuild, social, social_input, 0)->Apply(thread_rows);

void BM_QueryAlg3(benchmark::State& state) {
  const auto side = static_cast<index_t>(state.range(0));
  const Graph g = bench_graph(side);
  const ApproxCholEffRes engine(g, {});
  Rng rng(1);
  const index_t n = g.num_nodes();
  for (auto _ : state) {
    const index_t p = rng.uniform_int(n);
    const index_t q = rng.uniform_int(n);
    benchmark::DoNotOptimize(engine.resistance(p, q == p ? (p + 1) % n : q));
  }
}
BENCHMARK(BM_QueryAlg3)->Arg(64)->Arg(128)->Arg(256);

void BM_QueryExact(benchmark::State& state) {
  const auto side = static_cast<index_t>(state.range(0));
  const Graph g = bench_graph(side);
  const ExactEffRes engine(g);
  Rng rng(2);
  const index_t n = g.num_nodes();
  for (auto _ : state) {
    const index_t p = rng.uniform_int(n);
    const index_t q = rng.uniform_int(n);
    benchmark::DoNotOptimize(engine.resistance(p, q == p ? (p + 1) % n : q));
  }
}
BENCHMARK(BM_QueryExact)->Arg(64)->Arg(128);

void BM_QueryRandomProjection(benchmark::State& state) {
  const auto side = static_cast<index_t>(state.range(0));
  const Graph g = bench_graph(side);
  RandomProjectionOptions opts;
  opts.auto_scale = 8.0;
  const RandomProjectionEffRes engine(g, opts);
  Rng rng(3);
  const index_t n = g.num_nodes();
  for (auto _ : state) {
    const index_t p = rng.uniform_int(n);
    const index_t q = rng.uniform_int(n);
    benchmark::DoNotOptimize(engine.resistance(p, q == p ? (p + 1) % n : q));
  }
}
BENCHMARK(BM_QueryRandomProjection)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
