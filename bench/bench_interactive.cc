// E-INT — interactive re-evaluation latency (the paper's headline demo is
// the DBA loop: add a what-if feature, re-check the workload benefit). A
// DesignSession warmed over the SDSS 30-query workload re-plans only the
// queries referencing the delta's table, while the stateless
// Parinda::EvaluateDesign re-plans everything. This bench reports planner
// invocations and wall-clock for a single-index delta and enforces the
// >= 5x planner-call reduction acceptance bar.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/check.h"
#include "design/design_session.h"
#include "optimizer/planner.h"
#include "parinda/parinda.h"
#include "workload/sdss.h"

namespace parinda {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Queries whose FROM references `table`.
int QueriesReferencing(const Workload& workload, TableId table) {
  int count = 0;
  for (const WorkloadQuery& query : workload.queries) {
    for (const TableRef& ref : query.stmt.from) {
      if (ref.bound_table == table) {
        ++count;
        break;
      }
    }
  }
  return count;
}

WhatIfIndexDef DeltaIndex(const Database& db) {
  const TableInfo* field = db.catalog().FindTable("field");
  PARINDA_CHECK(field != nullptr);
  WhatIfIndexDef def;
  def.name = "eint_field_idx";
  def.table = field->id;
  def.columns = {field->schema.FindColumn("quality")};
  return def;
}

WhatIfIndexDef WarmIndex(const Database& db) {
  const TableInfo* photoobj = db.catalog().FindTable("photoobj");
  PARINDA_CHECK(photoobj != nullptr);
  WhatIfIndexDef def;
  def.name = "eint_photoobj_idx";
  def.table = photoobj->id;
  def.columns = {photoobj->schema.FindColumn("objid")};
  return def;
}

void RunInteractive() {
  Database* db = bench_util::SharedSdss(20000);
  auto workload = MakeSdssWorkload(db->catalog());
  PARINDA_CHECK_OK(workload);
  const WhatIfIndexDef warm = WarmIndex(*db);
  const WhatIfIndexDef delta = DeltaIndex(*db);
  const int referencing = QueriesReferencing(*workload, delta.table);

  bench_util::PrintHeader(
      "E-INT: single-index delta — incremental session vs full re-evaluation");
  std::printf("workload: %d queries; delta table referenced by %d\n",
              workload->size(), referencing);

  // Full path: the stateless wrapper, re-run from scratch with the delta
  // included (what an iterating DBA pays without the session layer).
  InteractiveDesign full_design;
  full_design.indexes = {warm, delta};
  Parinda tool(db);
  const int64_t full_before = Planner::stats().plans_built;
  const auto full_start = std::chrono::steady_clock::now();
  auto full_report = tool.EvaluateDesign(*workload, full_design);
  const double full_seconds = Seconds(full_start);
  PARINDA_CHECK_OK(full_report);
  const int64_t full_calls = Planner::stats().plans_built - full_before;

  // Incremental path: session warmed with the base design, then the delta.
  DesignSession session(db->catalog(), &*workload);
  PARINDA_CHECK_OK(session.AddIndex(warm));
  auto warm_report = session.Evaluate();
  PARINDA_CHECK_OK(warm_report);
  PARINDA_CHECK_OK(session.AddIndex(delta));
  PARINDA_CHECK(session.pending_queries() == referencing);
  const auto inc_start = std::chrono::steady_clock::now();
  auto inc_report = session.Evaluate();
  const double inc_seconds = Seconds(inc_start);
  PARINDA_CHECK_OK(inc_report);
  const int64_t inc_calls = session.last_eval_planner_calls();

  // The incremental report must match the stateless one bit for bit.
  PARINDA_CHECK(inc_report->optimized_cost == full_report->optimized_cost);
  PARINDA_CHECK(inc_report->average_benefit_pct ==
                full_report->average_benefit_pct);

  std::printf("%-28s %14s %14s %12s\n", "path", "planner calls", "seconds",
              "speedup");
  std::printf("%-28s %14lld %14.4f %12s\n", "full (stateless)",
              static_cast<long long>(full_calls), full_seconds, "1.0x");
  std::printf("%-28s %14lld %14.4f %11.1fx\n", "incremental (exact)",
              static_cast<long long>(inc_calls), inc_seconds,
              full_seconds / inc_seconds);

  // Acceptance bars: re-plan count bounded by the delta table's fan-in, and
  // >= 5x fewer planner calls than the full path.
  PARINDA_CHECK(inc_calls <= referencing);
  PARINDA_CHECK(full_calls >= 5 * inc_calls);

  bench_util::RecordMetric("eint.queries", workload->size());
  bench_util::RecordMetric("eint.delta_table_fanin", referencing);
  bench_util::RecordMetric("eint.full_planner_calls",
                           static_cast<double>(full_calls));
  bench_util::RecordMetric("eint.incremental_planner_calls",
                           static_cast<double>(inc_calls));
  bench_util::RecordMetric("eint.planner_call_ratio",
                           static_cast<double>(full_calls) /
                               static_cast<double>(inc_calls > 0 ? inc_calls
                                                                 : 1));
  bench_util::RecordMetric("eint.full_seconds", full_seconds);
  bench_util::RecordMetric("eint.incremental_seconds", inc_seconds);
}

/// One add-evaluate-drop-evaluate cycle on a warmed session.
void BM_IncrementalDelta(benchmark::State& state) {
  Database* db = bench_util::SharedSdss(20000);
  auto workload = MakeSdssWorkload(db->catalog());
  PARINDA_CHECK_OK(workload);
  DesignSession session(db->catalog(), &*workload);
  PARINDA_CHECK_OK(session.AddIndex(WarmIndex(*db)));
  PARINDA_CHECK_OK(session.Evaluate());
  const WhatIfIndexDef delta = DeltaIndex(*db);
  for (auto _ : state) {
    auto id = session.AddIndex(delta);
    PARINDA_CHECK_OK(id);
    auto report = session.Evaluate();
    PARINDA_CHECK_OK(report);
    benchmark::DoNotOptimize(report->optimized_cost);
    PARINDA_CHECK_OK(session.Drop(*id));
    auto reverted = session.Evaluate();
    PARINDA_CHECK_OK(reverted);
  }
}
BENCHMARK(BM_IncrementalDelta)->Unit(benchmark::kMillisecond);

/// The same cycle through the stateless facade (two full evaluations).
void BM_FullReevaluate(benchmark::State& state) {
  Database* db = bench_util::SharedSdss(20000);
  auto workload = MakeSdssWorkload(db->catalog());
  PARINDA_CHECK_OK(workload);
  Parinda tool(db);
  InteractiveDesign base_design;
  base_design.indexes = {WarmIndex(*db)};
  InteractiveDesign delta_design = base_design;
  delta_design.indexes.push_back(DeltaIndex(*db));
  for (auto _ : state) {
    auto report = tool.EvaluateDesign(*workload, delta_design);
    PARINDA_CHECK_OK(report);
    benchmark::DoNotOptimize(report->optimized_cost);
    auto reverted = tool.EvaluateDesign(*workload, base_design);
    PARINDA_CHECK_OK(reverted);
  }
}
BENCHMARK(BM_FullReevaluate)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parinda

int main(int argc, char** argv) {
  parinda::bench_util::InitFlags(&argc, argv);
  parinda::RunInteractive();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  parinda::bench_util::WriteJsonIfEnabled("bench_interactive");
  parinda::bench_util::WriteTraceIfEnabled("bench_interactive");
  return 0;
}
