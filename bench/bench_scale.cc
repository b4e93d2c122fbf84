// E10 — large-workload scaling (DESIGN.md §15). Expands the 30 SDSS
// templates into thousand-query workloads and sweeps two of the scaling
// features — workload compression and the incremental branch-and-bound
// solver — as ablation arms. Every arm must produce the bit-identical
// advice; the features only change how fast it is computed.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "advisor/index_advisor.h"
#include "autopart/autopart.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "common/metrics.h"
#include "solver/bnb.h"
#include "workload/compress.h"
#include "workload/sdss_scale.h"

namespace parinda {
namespace {

double WallMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

Workload ScaledWorkload(const Database& db, int num_queries) {
  SdssScaleConfig config;
  config.num_queries = num_queries;
  auto workload = MakeScaledSdssWorkload(db.catalog(), config);
  PARINDA_CHECK_OK(workload);
  return std::move(*workload);
}

/// One pipeline run: index advice (static greedy over the benefit matrix)
/// plus partition advice, with workload compression on or off.
struct PipelineResult {
  double wall_ms = 0.0;
  IndexAdvice indexes;
  PartitionAdvice partitions;
};

PipelineResult RunPipeline(const Database& db, const Workload& workload,
                           bool compress) {
  PipelineResult out;
  const auto start = std::chrono::steady_clock::now();
  IndexAdvisorOptions advisor_options;
  advisor_options.compress = compress;
  IndexAdvisor advisor(db.catalog(), workload, advisor_options);
  auto index_advice = advisor.SuggestWithStaticGreedy();
  PARINDA_CHECK_OK(index_advice);
  out.indexes = std::move(*index_advice);

  AutoPartOptions autopart_options;
  autopart_options.compress = compress;
  autopart_options.max_iterations = 1;
  autopart_options.max_candidates_per_iteration = 16;
  AutoPartAdvisor autopart(db.catalog(), workload, autopart_options);
  auto partition_advice = autopart.Suggest();
  PARINDA_CHECK_OK(partition_advice);
  out.partitions = std::move(*partition_advice);
  out.wall_ms = WallMs(start);
  return out;
}

/// Bitwise advice identity across two pipeline runs: same indexes (defs and
/// reported doubles), same fragments, same totals.
bool SameAdvice(const PipelineResult& a, const PipelineResult& b) {
  if (a.indexes.indexes.size() != b.indexes.indexes.size()) return false;
  for (size_t i = 0; i < a.indexes.indexes.size(); ++i) {
    const SuggestedIndex& x = a.indexes.indexes[i];
    const SuggestedIndex& y = b.indexes.indexes[i];
    if (x.def.table != y.def.table || x.def.columns != y.def.columns ||
        x.benefit != y.benefit || x.size_bytes != y.size_bytes) {
      return false;
    }
  }
  if (a.indexes.base_cost != b.indexes.base_cost ||
      a.indexes.optimized_cost != b.indexes.optimized_cost) {
    return false;
  }
  if (a.partitions.fragments.size() != b.partitions.fragments.size()) {
    return false;
  }
  for (size_t i = 0; i < a.partitions.fragments.size(); ++i) {
    if (a.partitions.fragments[i].table != b.partitions.fragments[i].table ||
        a.partitions.fragments[i].columns !=
            b.partitions.fragments[i].columns) {
      return false;
    }
  }
  return a.partitions.base_cost == b.partitions.base_cost &&
         a.partitions.optimized_cost == b.partitions.optimized_cost;
}

void RunSizeSweep() {
  Database* db = bench_util::SharedSdss(20000);
  bench_util::PrintHeader(
      "E10a: workload size sweep, full scaling pipeline");
  std::printf("%-8s %10s %10s %12s %12s\n", "queries", "distinct", "ratio",
              "sparse nnz", "wall (ms)");
  for (const int n : {500, 1000, 2000}) {
    const Workload workload = ScaledWorkload(*db, n);
    const CompressedWorkload compressed =
        CompressWorkload(db->catalog(), workload);
    const PipelineResult full = RunPipeline(*db, workload, true);
    const int64_t nnz =
        metrics::Registry::Global().gauge("advisor.sparse_nnz").value();
    std::printf("%-8d %10d %9.1fx %12lld %12.1f\n", n,
                compressed.workload.size(), compressed.ratio(),
                static_cast<long long>(nnz), full.wall_ms);
    const std::string prefix = "e10a." + std::to_string(n);
    bench_util::RecordMetric(prefix + ".distinct", compressed.workload.size());
    bench_util::RecordMetric(prefix + ".compression_ratio",
                             compressed.ratio());
    bench_util::RecordMetric(prefix + ".sparse_nnz",
                             static_cast<double>(nnz));
    bench_util::RecordMetric(prefix + ".wall_ms", full.wall_ms);
  }
}

void RunAblation() {
  Database* db = bench_util::SharedSdss(20000);
  const int kQueries = 2000;
  const Workload workload = ScaledWorkload(*db, kQueries);
  bench_util::PrintHeader(
      "E10b ablation: 2000-query pipeline, compression on vs off");
  const PipelineResult full = RunPipeline(*db, workload, true);
  const PipelineResult off = RunPipeline(*db, workload, false);
  PARINDA_CHECK(SameAdvice(full, off));
  const double full_ms = full.wall_ms;
  const double off_ms = off.wall_ms;
  std::printf("%-14s %12s %10s\n", "arm", "wall (ms)", "speedup");
  std::printf("%-14s %12.1f %9.2fx\n", "full", full_ms, 1.0);
  std::printf("%-14s %12.1f %9.2fx\n", "all-off", off_ms, off_ms / full_ms);
  std::printf("full pipeline vs all-off: %.2fx faster, advice identical\n",
              off_ms / full_ms);
  bench_util::RecordMetric("e10b.queries", kQueries);
  bench_util::RecordMetric("e10b.full_ms", full_ms);
  bench_util::RecordMetric("e10b.all_off_ms", off_ms);
  bench_util::RecordMetric("e10b.speedup", off_ms / full_ms);
  bench_util::RecordMetric("e10b.advice_identical", 1.0);
}

/// A deterministic multi-constraint knapsack whose LP relaxation is
/// fractional at many nodes — the advisor's real ILPs usually solve at the
/// root, so the solver comparison needs an instance with an actual tree.
BinaryMip MakeHardKnapsack(int n) {
  BinaryMip mip;
  mip.lp.objective.resize(static_cast<size_t>(n));
  LinearProgram::Constraint budget;
  double total_weight = 0.0;
  for (int i = 0; i < n; ++i) {
    // Coprime-ish value/weight patterns keep benefit-per-byte ties rare and
    // the relaxation fractional.
    const double value = 7.0 + static_cast<double>((i * 37) % 23);
    const double weight = 5.0 + static_cast<double>((i * 53) % 29);
    mip.lp.objective[static_cast<size_t>(i)] = value;
    budget.terms.push_back({i, weight});
    total_weight += weight;
  }
  budget.rhs = total_weight / 3.0;
  mip.lp.AddConstraint(std::move(budget));
  // Overlapping cardinality windows: at most 3 of any 7 consecutive items.
  for (int i = 0; i + 7 <= n; i += 4) {
    LinearProgram::Constraint window;
    for (int j = i; j < i + 7; ++j) window.terms.push_back({j, 1.0});
    window.rhs = 3.0;
    mip.lp.AddConstraint(std::move(window));
  }
  return mip;
}

void RunSolverAblation() {
  // E10c — incremental (one shared LP, in-place bounds, best-first, rounded
  // warm start) vs copy-per-node DFS branch and bound.
  bench_util::PrintHeader(
      "E10c ablation: incremental vs copy-per-node branch and bound");
  const BinaryMip mip = MakeHardKnapsack(40);
  metrics::Counter& lp_copies =
      metrics::Registry::Global().counter("solver.lp_copies");
  struct Outcome {
    double wall_ms = 0.0;
    int64_t lp_copies = 0;
    MipSolution solution;
  };
  auto run = [&](bool incremental) {
    MipOptions options;
    options.incremental = incremental;
    const int64_t copies_before = lp_copies.value();
    const auto start = std::chrono::steady_clock::now();
    auto solution = SolveBinaryMip(mip, options);
    PARINDA_CHECK_OK(solution);
    PARINDA_CHECK(solution->proved_optimal);
    Outcome out;
    out.wall_ms = WallMs(start);
    out.lp_copies = lp_copies.value() - copies_before;
    out.solution = std::move(*solution);
    return out;
  };
  const Outcome incremental = run(true);
  const Outcome legacy = run(false);
  // Both search strategies are exact: same optimum, different node costs.
  PARINDA_CHECK(incremental.solution.objective == legacy.solution.objective);
  std::printf("%-14s %12s %12s %10s %10s\n", "solver", "wall (ms)",
              "LP copies", "explored", "pruned");
  std::printf("%-14s %12.2f %12lld %10d %10d\n", "incremental",
              incremental.wall_ms,
              static_cast<long long>(incremental.lp_copies),
              incremental.solution.nodes_explored,
              incremental.solution.nodes_pruned);
  std::printf("%-14s %12.2f %12lld %10d %10d\n", "copy-per-node",
              legacy.wall_ms, static_cast<long long>(legacy.lp_copies),
              legacy.solution.nodes_explored, legacy.solution.nodes_pruned);
  bench_util::RecordMetric("e10c.incremental_ms", incremental.wall_ms);
  bench_util::RecordMetric("e10c.legacy_ms", legacy.wall_ms);
  bench_util::RecordMetric("e10c.incremental_lp_copies",
                           static_cast<double>(incremental.lp_copies));
  bench_util::RecordMetric("e10c.legacy_lp_copies",
                           static_cast<double>(legacy.lp_copies));
  bench_util::RecordMetric("e10c.incremental_nodes",
                           incremental.solution.nodes_explored);
  bench_util::RecordMetric("e10c.legacy_nodes",
                           legacy.solution.nodes_explored);
}

void BM_ScaledPipeline(benchmark::State& state) {
  Database* db = bench_util::SharedSdss(20000);
  const Workload workload =
      ScaledWorkload(*db, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const PipelineResult result = RunPipeline(*db, workload, true);
    benchmark::DoNotOptimize(result.indexes.optimized_cost);
  }
}
BENCHMARK(BM_ScaledPipeline)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parinda

int main(int argc, char** argv) {
  parinda::bench_util::InitFlags(&argc, argv);
  parinda::RunSizeSweep();
  parinda::RunAblation();
  parinda::RunSolverAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  parinda::bench_util::WriteJsonIfEnabled("bench_scale");
  parinda::bench_util::WriteTraceIfEnabled("bench_scale");
  return 0;
}
