// Tests for the parallel subsystem: thread-pool task completion, exception
// propagation, the TaskHeap executor (ordering, dependencies, errors),
// nested calls (a caller that waits on pool work runs it, from any thread:
// runs from busy workers of the same pool, parallel_for three deep, helpers
// that start after their run is over, a nested Alg. 3 build), batched ER
// queries across a pool, and the determinism guarantee — the partitioner,
// stitch, RP row solves, and the whole reduce_network pipeline (incremental
// updates included) must produce bit-identical results at any thread
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "effres/approx_chol.hpp"
#include "effres/exact.hpp"
#include "effres/random_projection.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "parallel/task_heap.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/partition.hpp"
#include "pg/incremental.hpp"
#include "reduction/pipeline.hpp"
#include "util/rng.hpp"
#include "factor_test_util.hpp"

namespace er {
namespace {

// ---------------- ThreadPool ----------------

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([&count] { ++count; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ResolveNumThreads) {
  EXPECT_EQ(resolve_num_threads(1), 1);
  EXPECT_EQ(resolve_num_threads(7), 7);
  EXPECT_GE(resolve_num_threads(0), 1);  // auto
  EXPECT_THROW(resolve_num_threads(-1), std::invalid_argument);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, SubmitFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  std::future<void> inner_fut;
  pool.submit([&] { inner_fut = pool.submit([&inner] { ++inner; }); }).get();
  inner_fut.get();
  EXPECT_EQ(inner.load(), 1);
}

// ---------------- parallel_for ----------------

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  parallel_for(&pool, 0, 1000, 16, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i)
      ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, SerialFallbacks) {
  // Null pool, empty range, and single-grain ranges all run inline.
  int calls = 0;
  parallel_for(nullptr, 0, 10, 1, [&](index_t lo, index_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 10);
  });
  EXPECT_EQ(calls, 1);
  parallel_for(nullptr, 5, 5, 1,
               [&](index_t, index_t) { FAIL() << "empty range ran"; });
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(&pool, 0, 100, 1,
                   [](index_t lo, index_t) {
                     if (lo >= 50) throw std::runtime_error("chunk failed");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, NestedThreeDeepOnTwoThreads) {
  // Every level's caller works its own chunks, so the innermost calls
  // finish even while both workers are inside outer chunks.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(8 * 8 * 10);
  parallel_for(&pool, 0, 8, 1, [&](index_t a0, index_t a1) {
    for (index_t a = a0; a < a1; ++a)
      parallel_for(&pool, 0, 8, 1, [&](index_t b0, index_t b1) {
        for (index_t b = b0; b < b1; ++b)
          parallel_for(&pool, 0, 10, 1, [&](index_t c0, index_t c1) {
            for (index_t c = c0; c < c1; ++c) ++hits[static_cast<std::size_t>((a * 8 + b) * 10 + c)];
          });
      });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(TransientPool, StartsForMoreThanOneThread) {
  EXPECT_EQ(transient_pool(1), nullptr);
  const std::unique_ptr<ThreadPool> pool = transient_pool(2);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 2);
}

// ---------------- TaskHeap ----------------

// A random DAG whose node j takes up to four inputs among the nodes above
// it; some nodes fan in from several, some fan out to many.
struct RandomDag {
  std::vector<std::vector<int>> inputs;
  std::vector<std::vector<int>> consumers;
};

RandomDag random_dag(int n, std::uint64_t seed) {
  RandomDag dag;
  dag.inputs.resize(static_cast<std::size_t>(n));
  dag.consumers.resize(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (int j = 0; j + 1 < n; ++j) {
    const auto fan_in = static_cast<int>(rng.uniform_index(5));
    for (int k = 0; k < fan_in; ++k) {
      // Half the inputs come from a few hubs near the top.
      const int above = n - 1 - j;
      const int i = rng.uniform() < 0.5
                        ? n - 1 - static_cast<int>(rng.uniform_index(
                                      static_cast<std::uint64_t>(std::min(above, 3))))
                        : j + 1 + static_cast<int>(rng.uniform_index(
                                      static_cast<std::uint64_t>(above)));
      auto& in = dag.inputs[static_cast<std::size_t>(j)];
      if (std::find(in.begin(), in.end(), i) != in.end()) continue;
      in.push_back(i);
      dag.consumers[static_cast<std::size_t>(i)].push_back(j);
    }
  }
  return dag;
}

/// Runs `dag` on `pool` and checks that every task ran once, after its
/// inputs, in a slot below pool.num_threads().
void expect_dag_runs(const RandomDag& dag, ThreadPool& pool) {
  const auto n = static_cast<int>(dag.inputs.size());
  std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
  std::vector<std::atomic<bool>> done(static_cast<std::size_t>(n));
  std::atomic<int> inputs_missing{0};
  std::atomic<int> bad_worker{0};
  std::vector<int> pending(static_cast<std::size_t>(n));
  std::vector<int> ready;
  for (int j = 0; j < n; ++j) {
    pending[static_cast<std::size_t>(j)] =
        static_cast<int>(dag.inputs[static_cast<std::size_t>(j)].size());
    if (pending[static_cast<std::size_t>(j)] == 0) ready.push_back(j);
  }
  int completes = 0;  // complete() calls never overlap, so no atomic
  TaskHeap(
      std::move(ready),
      [&](int j, int worker) {
        if (worker < 0 || worker >= pool.num_threads()) ++bad_worker;
        for (int i : dag.inputs[static_cast<std::size_t>(j)])
          if (!done[static_cast<std::size_t>(i)]) ++inputs_missing;
        ++runs[static_cast<std::size_t>(j)];
        done[static_cast<std::size_t>(j)] = true;
      },
      [&](int j, std::vector<int>& next) {
        ++completes;
        for (int c : dag.consumers[static_cast<std::size_t>(j)])
          if (--pending[static_cast<std::size_t>(c)] == 0) next.push_back(c);
      })
      .run(pool);
  EXPECT_EQ(completes, n);
  EXPECT_EQ(inputs_missing.load(), 0);
  EXPECT_EQ(bad_worker.load(), 0);
  for (int j = 0; j < n; ++j) EXPECT_EQ(runs[static_cast<std::size_t>(j)].load(), 1) << j;
}

TEST(TaskHeap, RandomDagRunsEveryTaskOnceAfterItsInputs) {
  const RandomDag dag = random_dag(600, 71);
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    expect_dag_runs(dag, pool);
  }
}

TEST(TaskHeap, EmptyGraphReturnsAtOnce) {
  obs::MetricsRegistry reg;
  ThreadPool pool(4, &reg);
  TaskHeap(
      std::vector<int>{}, [](int, int) { ADD_FAILURE() << "a task ran"; },
      [](int, std::vector<int>&) { ADD_FAILURE() << "a task completed"; })
      .run(pool);
  EXPECT_EQ(reg.counter("er_pool_tasks_total").value(), 0u);
}

TEST(TaskHeap, OneWorkerPopsInPriorityOrder) {
  // Even tasks are ready at the start, shuffled; completing 2k readies
  // 2k + 1, which then outranks every even task still waiting.
  std::vector<int> ready;
  for (int k = 0; k < 50; ++k) ready.push_back(2 * k);
  Rng rng(72);
  for (std::size_t i = ready.size(); i > 1; --i)
    std::swap(ready[i - 1], ready[static_cast<std::size_t>(rng.uniform_index(i))]);
  ThreadPool pool(1);
  std::vector<int> order;
  TaskHeap(
      std::move(ready), [&](int t, int) { order.push_back(t); },
      [](int t, std::vector<int>& next) {
        if (t % 2 == 0) next.push_back(t + 1);
      })
      .run(pool);
  std::vector<int> expected;
  for (int k = 49; k >= 0; --k) {
    expected.push_back(2 * k);
    expected.push_back(2 * k + 1);
  }
  EXPECT_EQ(order, expected);
}

TEST(TaskHeap, ErrorReachesCallerAfterEveryWorkerAndStopsDependents) {
  // Task 100 (the top) throws; tasks 0..7 are independent and slow;
  // tasks 200..209 depend on 100. The caller must see the error with no
  // task still running, and no dependent of 100 may run.
  ThreadPool pool(4);
  std::atomic<int> in_flight{0};
  std::atomic<int> dependents_run{0};
  std::vector<int> ready{100};
  for (int t = 0; t < 8; ++t) ready.push_back(t);
  bool caught = false;
  try {
    TaskHeap(
        std::move(ready),
        [&](int t, int) {
          ++in_flight;
          if (t >= 200) ++dependents_run;
          if (t == 100) {
            --in_flight;
            throw std::runtime_error("task 100 failed");
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          --in_flight;
        },
        [](int t, std::vector<int>& next) {
          if (t == 100)
            for (int d = 200; d < 210; ++d) next.push_back(d);
        })
        .run(pool);
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "task 100 failed");
    EXPECT_EQ(in_flight.load(), 0);
  }
  EXPECT_TRUE(caught);
  EXPECT_EQ(dependents_run.load(), 0);
  // The pool is left usable.
  std::atomic<int> count{0};
  parallel_for(&pool, 0, 64, 1, [&](index_t lo, index_t hi) { count += static_cast<int>(hi - lo); });
  EXPECT_EQ(count.load(), 64);
}

TEST(TaskHeap, RunFromEveryBusyWorkerOfTheSamePool) {
  // Every worker is inside a task that runs a graph on its own pool, so
  // no helper can start until some run is over: each caller must finish
  // its graph alone.
  const RandomDag dag = random_dag(300, 73);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    std::atomic<int> arrived{0};
    std::vector<std::future<void>> outer;
    for (int w = 0; w < threads; ++w)
      outer.push_back(pool.submit([&] {
        ++arrived;
        while (arrived.load() < threads) std::this_thread::yield();
        expect_dag_runs(dag, pool);
      }));
    for (auto& f : outer) f.get();
  }
}

TEST(TaskHeap, HelpersThatStartAfterTheirRunTouchNothing) {
  // Runs and loops issued back to back from one worker of a 2-thread pool
  // while the other worker is held: each caller does all of its work in
  // slot 0 and its objects are gone before its helper starts. Then the
  // same from the main thread of a free 4-thread pool, where helpers race
  // the next run.
  obs::MetricsRegistry reg;
  ThreadPool held(2, &reg);
  std::atomic<bool> release{false};
  std::future<void> hold = held.submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  const RandomDag dag = random_dag(40, 74);
  auto short_runs = [&dag](ThreadPool& pool, int rounds, std::atomic<int>& helper_slots) {
    for (int r = 0; r < rounds; ++r) {
      std::vector<int> hits(16, 0);
      parallel_for(&pool, 0, 16, 1, [&hits](index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
      });
      EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 16);
      std::vector<int> ready;
      for (int j = 0; j < static_cast<int>(dag.inputs.size()); ++j)
        if (dag.inputs[static_cast<std::size_t>(j)].empty()) ready.push_back(j);
      std::vector<int> pending;
      for (const auto& in : dag.inputs) pending.push_back(static_cast<int>(in.size()));
      TaskHeap(
          std::move(ready), [&helper_slots](int, int slot) { helper_slots += slot > 0; },
          [&](int j, std::vector<int>& next) {
            for (int c : dag.consumers[static_cast<std::size_t>(j)])
              if (--pending[static_cast<std::size_t>(c)] == 0) next.push_back(c);
          })
          .run(pool);
    }
  };
  std::atomic<int> held_helper_slots{0};
  held.submit([&] { short_runs(held, 200, held_helper_slots); }).get();
  EXPECT_EQ(held_helper_slots.load(), 0);
  // The held and outer tasks plus one queued helper per call.
  EXPECT_EQ(reg.counter("er_pool_tasks_total").value(), 2u + 200u * 2u);
  release = true;
  hold.get();

  ThreadPool free_pool(4);
  std::atomic<int> free_helper_slots{0};
  short_runs(free_pool, 500, free_helper_slots);
}

TEST(ApproxCholParallel, BuildOnWorkersOfItsOwnPoolMatchesMainThread) {
  // The engines build on the workers of the pool they are given, as a
  // block's engine does under reduce_network, and with a transient pool
  // of their own; Z~ is bitwise equal to the main thread's build.
  const Graph g = barabasi_albert(3000, 3, WeightKind::kUnit, 17);
  ApproxCholOptions opts;
  opts.parallel.num_threads = 4;
  const ApproxCholEffRes main_build(g, opts);
  ThreadPool pool(4);
  std::vector<std::unique_ptr<ApproxCholEffRes>> got(6);
  parallel_for(&pool, 0, 6, 1, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      ApproxCholOptions nested = opts;
      nested.pool = i % 2 == 0 ? &pool : nullptr;
      got[static_cast<std::size_t>(i)] = std::make_unique<ApproxCholEffRes>(g, nested);
    }
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("build " + std::to_string(i));
    expect_columns_bitwise(got[i]->approximate_inverse(), main_build.approximate_inverse());
  }
}

// ---------------- Batched ER queries ----------------

TEST(BatchedQueries, AllEnginesMatchSerialExactly) {
  const Graph g = grid_2d(12, 12, WeightKind::kUniform, 21);
  const auto queries = all_edge_queries(g);
  ThreadPool pool(4);

  const ExactEffRes exact(g);
  RandomProjectionOptions rp_opts;
  rp_opts.seed = 7;
  const RandomProjectionEffRes rp(g, rp_opts);
  const ApproxCholEffRes alg3(g);
  const std::vector<const EffResEngine*> engines{&exact, &rp, &alg3};

  for (const EffResEngine* engine : engines) {
    const auto serial = engine->resistances(queries);
    const auto parallel = engine->resistances(queries, &pool);
    ASSERT_EQ(serial.size(), parallel.size()) << engine->name();
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(serial[i], parallel[i]) << engine->name() << " query " << i;
  }
}

// ---------------- Parallel partitioner ----------------

TEST(ParallelPartition, BitIdenticalAcrossThreadCounts) {
  // Coarsening contraction, coarse-weight accumulation, and the boundary
  // scan all chunk across the pool; the partition must not change.
  for (const Graph& g :
       {grid_2d(40, 40, WeightKind::kUniform, 51),
        barabasi_albert(1500, 3, WeightKind::kUniform, 52)}) {
    PartitionOptions opts;
    opts.num_parts = 8;
    opts.seed = 7;
    const PartitionResult serial = partition_graph(g, opts);
    for (int threads : {2, 4, 8}) {
      ThreadPool pool(threads);
      const PartitionResult par = partition_graph(g, opts, &pool);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ASSERT_EQ(serial.part, par.part);
    }
  }
}

// ---------------- Determinism of the parallel pipeline ----------------

struct PipelineCase {
  ConductanceNetwork net;
  std::vector<char> ports;
};

PipelineCase make_case(index_t nx, index_t ny, index_t nports,
                       std::uint64_t seed) {
  PipelineCase c;
  c.net.graph = grid_2d(nx, ny, WeightKind::kUniform, seed);
  const index_t n = nx * ny;
  c.net.shunts.assign(static_cast<std::size_t>(n), 0.0);
  c.ports.assign(static_cast<std::size_t>(n), 0);
  Rng rng(seed + 1);
  index_t placed = 0;
  while (placed < nports) {
    const index_t v = rng.uniform_int(n);
    if (c.ports[static_cast<std::size_t>(v)]) continue;
    c.ports[static_cast<std::size_t>(v)] = 1;
    if (placed < 2) c.net.shunts[static_cast<std::size_t>(v)] = 50.0;
    ++placed;
  }
  return c;
}

void expect_identical_models(const ReducedModel& a, const ReducedModel& b) {
  // The library's determinism oracle must agree with the field-by-field
  // comparison below (which exists for its per-field gtest diagnostics).
  EXPECT_TRUE(models_identical(a, b));
  ASSERT_EQ(a.node_map, b.node_map);
  ASSERT_EQ(a.representative, b.representative);
  ASSERT_EQ(a.block_of, b.block_of);
  ASSERT_EQ(a.block_kept, b.block_kept);
  ASSERT_EQ(a.network.num_nodes(), b.network.num_nodes());
  ASSERT_EQ(a.network.graph.num_edges(), b.network.graph.num_edges());
  for (std::size_t e = 0; e < a.network.graph.num_edges(); ++e) {
    const Edge& ea = a.network.graph.edges()[e];
    const Edge& eb = b.network.graph.edges()[e];
    ASSERT_EQ(ea.u, eb.u) << "edge " << e;
    ASSERT_EQ(ea.v, eb.v) << "edge " << e;
    ASSERT_EQ(ea.weight, eb.weight) << "edge " << e;  // bit-identical
  }
  ASSERT_EQ(a.network.shunts.size(), b.network.shunts.size());
  for (std::size_t v = 0; v < a.network.shunts.size(); ++v)
    ASSERT_EQ(a.network.shunts[v], b.network.shunts[v]) << "shunt " << v;
}

TEST(ParallelReduction, BitIdenticalAcrossThreadCounts) {
  const PipelineCase c = make_case(40, 40, 96, 31);
  for (ErBackend backend : {ErBackend::kApproxChol, ErBackend::kExact,
                            ErBackend::kRandomProjection}) {
    ReductionOptions opts;
    opts.num_blocks = 32;
    opts.backend = backend;
    opts.parallel.num_threads = 1;
    const ReducedModel serial = reduce_network(c.net, c.ports, opts);
    for (int threads : {2, 4, 8}) {
      opts.parallel.num_threads = threads;
      const ReducedModel par = reduce_network(c.net, c.ports, opts);
      SCOPED_TRACE(std::string(to_string(backend)) + " threads=" +
                   std::to_string(threads));
      expect_identical_models(serial, par);
    }
  }
}

TEST(ParallelReduction, IncrementalUpdateBitIdentical) {
  // One to five dirty blocks on 1-8 threads: with fewer dirty blocks than
  // threads, or the last ones of a round, a block's Alg. 2 build, row
  // solves and queries take in the idle workers.
  const PipelineCase c = make_case(32, 32, 64, 33);
  for (ErBackend backend : {ErBackend::kApproxChol, ErBackend::kRandomProjection}) {
    ReductionOptions opts;
    opts.num_blocks = 16;
    opts.backend = backend;
    const std::vector<int> thread_counts{1, 2, 4, 8};
    std::vector<std::unique_ptr<IncrementalReducer>> reducers;
    for (int threads : thread_counts) {
      opts.parallel.num_threads = threads;
      reducers.push_back(std::make_unique<IncrementalReducer>(c.net, c.ports, opts));
    }
    for (std::size_t r = 1; r < reducers.size(); ++r)
      expect_identical_models(reducers.front()->model(), reducers[r]->model());
    const BlockStructure& structure = reducers.front()->structure();
    ConductanceNetwork modified = c.net;
    for (int dirty = 1; dirty <= 5; ++dirty) {
      const GridModification mod = random_modification(
          structure.num_blocks, dirty / 16.0, 1.5, static_cast<std::uint64_t>(dirty));
      ASSERT_EQ(mod.dirty_blocks.size(), static_cast<std::size_t>(dirty));
      modified = apply_modification(modified, structure, mod);
      const ReducedModel& serial = reducers.front()->update(modified, mod.dirty_blocks);
      for (std::size_t r = 1; r < reducers.size(); ++r) {
        SCOPED_TRACE(std::string(to_string(backend)) + " dirty=" + std::to_string(dirty) +
                     " threads=" + std::to_string(thread_counts[r]));
        expect_identical_models(serial, reducers[r]->update(modified, mod.dirty_blocks));
      }
    }
  }
}

TEST(ParallelReduction, IncrementalUpdateToleratesDuplicateDirtyBlocks) {
  // Duplicate ids must not race (two tasks writing one slot) nor change
  // the result.
  const PipelineCase c = make_case(24, 24, 48, 37);
  ReductionOptions opts;
  opts.num_blocks = 8;
  opts.parallel.num_threads = 4;
  IncrementalReducer unique_ids(c.net, c.ports, opts);
  IncrementalReducer dup_ids(c.net, c.ports, opts);
  const GridModification mod =
      random_modification(unique_ids.structure().num_blocks, 0.5, 1.5, 11);
  const ConductanceNetwork modified =
      apply_modification(c.net, unique_ids.structure(), mod);
  std::vector<index_t> duplicated;
  for (index_t b : mod.dirty_blocks) {
    duplicated.push_back(b);
    duplicated.push_back(b);
  }
  const ReducedModel& a = unique_ids.update(modified, mod.dirty_blocks);
  const ReducedModel& b = dup_ids.update(modified, duplicated);
  expect_identical_models(a, b);
}

TEST(ParallelReduction, IncrementalUpdateOrderIndependent) {
  // Every per-block RNG stream is hash(seed, block), so re-reducing the
  // dirty blocks in any order — or any thread interleaving — yields the
  // same model.
  const PipelineCase c = make_case(32, 32, 64, 35);
  ReductionOptions opts;
  opts.num_blocks = 16;
  IncrementalReducer fwd(c.net, c.ports, opts);
  IncrementalReducer rev(c.net, c.ports, opts);
  const GridModification mod =
      random_modification(fwd.structure().num_blocks, 0.25, 2.0, 9);
  const ConductanceNetwork modified =
      apply_modification(c.net, fwd.structure(), mod);
  std::vector<index_t> reversed(mod.dirty_blocks.rbegin(),
                                mod.dirty_blocks.rend());
  const ReducedModel& a = fwd.update(modified, mod.dirty_blocks);
  const ReducedModel& b = rev.update(modified, reversed);
  expect_identical_models(a, b);
}

TEST(ParallelStitch, BitIdenticalAcrossThreadCounts) {
  // Fix one set of per-block reductions, then stitch it serially and across
  // pools of every width: the two-pass prefix-sum scheme must write the
  // exact same model.
  const PipelineCase c = make_case(36, 36, 80, 41);
  ReductionOptions opts;
  opts.num_blocks = 24;
  const BlockStructure st = build_block_structure(c.net, c.ports, opts);
  std::vector<BlockReduced> blocks(static_cast<std::size_t>(st.num_blocks));
  for (index_t b = 0; b < st.num_blocks; ++b)
    blocks[static_cast<std::size_t>(b)] =
        reduce_block(c.net, c.ports, st, b, opts);

  const ReducedModel serial = stitch_blocks(c.net, st, blocks);
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    const ReducedModel par = stitch_blocks(c.net, st, blocks, &pool);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical_models(serial, par);
  }
}

// ---------------- Parallel random-projection rows ----------------

TEST(ParallelRandomProjection, RowSolvesBitIdenticalAcrossThreadCounts) {
  // Every projection row draws from its own mix_seed(seed, r) stream and
  // solves into a disjoint embedding slice, so the engine built at any
  // thread count answers every query with the exact same bits.
  const Graph g = grid_2d(14, 14, WeightKind::kUniform, 61);
  const auto queries = all_edge_queries(g);
  RandomProjectionOptions opts;
  opts.seed = 19;
  const RandomProjectionEffRes serial(g, opts);
  const auto reference = serial.resistances(queries);
  EXPECT_EQ(serial.stats().nonconverged_rows, 0);
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    RandomProjectionOptions par_opts;
    par_opts.seed = 19;
    par_opts.pool = &pool;
    const RandomProjectionEffRes par(g, par_opts);
    const auto got = par.resistances(queries);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_EQ(reference.size(), got.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      ASSERT_EQ(reference[i], got[i]) << "query " << i;
    EXPECT_EQ(par.stats().total_solver_iterations,
              serial.stats().total_solver_iterations);
  }
}

TEST(ParallelRandomProjection, CountsNonconvergedRows) {
  // With the preconditioner degraded to (near-)diagonal, one CG iteration
  // can't reach a 1e-12 residual on a mesh, so every row must be flagged
  // instead of silently feeding an unconverged embedding onward.
  const Graph g = grid_2d(12, 12, WeightKind::kUniform, 62);
  RandomProjectionOptions opts;
  opts.dimensions = 16;
  opts.solver_max_iterations = 1;
  opts.solver_tolerance = 1e-12;
  opts.ichol_droptol = 1.0;
  const RandomProjectionEffRes rp(g, opts);
  EXPECT_EQ(rp.stats().nonconverged_rows, 16);
}

// ---------------- Timing-stats sanity ----------------

TEST(ReductionStats, PhaseWallClocksBoundedByTotal) {
  // Regression for the misleading multi-thread breakdown: the wall-clock
  // stage spans are disjoint, so each must stay within total_seconds even
  // when blocks run concurrently (the CPU-second aggregates may not).
  const PipelineCase c = make_case(32, 32, 64, 43);
  ReductionOptions opts;
  opts.num_blocks = 16;
  for (int threads : {1, 4}) {
    opts.parallel.num_threads = threads;
    const ReducedModel m = reduce_network(c.net, c.ports, opts);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ReductionStats& s = m.stats;
    EXPECT_GE(s.partition_seconds, 0.0);
    EXPECT_GE(s.reduce_seconds, 0.0);
    EXPECT_GE(s.stitch_seconds, 0.0);
    EXPECT_LE(s.partition_seconds, s.total_seconds);
    EXPECT_LE(s.reduce_seconds, s.total_seconds);
    EXPECT_LE(s.stitch_seconds, s.total_seconds);
    EXPECT_LE(s.partition_seconds + s.reduce_seconds + s.stitch_seconds,
              s.total_seconds);
    EXPECT_GE(s.schur_cpu_seconds, 0.0);
    EXPECT_GE(s.er_cpu_seconds, 0.0);
    EXPECT_GE(s.sparsify_cpu_seconds, 0.0);
  }
}

TEST(RandomModification, PerBlockSelectionIsStable) {
  const GridModification a = random_modification(64, 0.25, 1.2, 17);
  const GridModification b = random_modification(64, 0.25, 1.2, 17);
  EXPECT_EQ(a.dirty_blocks, b.dirty_blocks);
  EXPECT_EQ(a.dirty_blocks.size(), 16u);
  // Growing the universe keeps each block's priority: the selection for a
  // prefix universe is consistent with per-block hashing.
  const GridModification c = random_modification(64, 1.0, 1.2, 17);
  EXPECT_EQ(c.dirty_blocks.size(), 64u);
}

}  // namespace
}  // namespace er
