#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/random.h"
#include "advisor/benefit_matrix.h"
#include "advisor/candidates.h"
#include "catalog/size_model.h"
#include "advisor/index_advisor.h"
#include "inum/inum.h"
#include "optimizer/query_analysis.h"
#include "tests/test_util.h"
#include "workload/sdss.h"
#include "workload/tpch_mini.h"

namespace parinda {
namespace {

class CandidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    orders_ = testing_util::MakeOrdersTable(&db_, 3000);
    customers_ = testing_util::MakeCustomersTable(&db_, 300);
  }
  Database db_;
  TableId orders_ = kInvalidTableId;
  TableId customers_ = kInvalidTableId;
};

TEST_F(CandidateTest, GeneratesSinglesForPredicateColumns) {
  auto workload = MakeWorkload(
      db_.catalog(),
      {"SELECT amount FROM orders WHERE id = 5",
       "SELECT id FROM orders WHERE amount > 900"});
  ASSERT_TRUE(workload.ok());
  auto candidates = GenerateCandidateIndexes(db_.catalog(), *workload);
  ASSERT_TRUE(candidates.ok());
  bool has_id = false;
  bool has_amount = false;
  for (const WhatIfIndexDef& def : *candidates) {
    if (def.table == orders_ && def.columns == std::vector<ColumnId>{0}) {
      has_id = true;
    }
    if (def.table == orders_ && def.columns == std::vector<ColumnId>{2}) {
      has_amount = true;
    }
  }
  EXPECT_TRUE(has_id);
  EXPECT_TRUE(has_amount);
}

TEST_F(CandidateTest, GeneratesMulticolumnCandidates) {
  auto workload = MakeWorkload(
      db_.catalog(),
      {"SELECT id FROM orders WHERE region = 'north' AND amount > 900"});
  ASSERT_TRUE(workload.ok());
  auto candidates = GenerateCandidateIndexes(db_.catalog(), *workload);
  ASSERT_TRUE(candidates.ok());
  bool has_pair = false;
  for (const WhatIfIndexDef& def : *candidates) {
    if (def.table == orders_ &&
        def.columns == std::vector<ColumnId>{3, 2}) {  // (region, amount)
      has_pair = true;
    }
  }
  EXPECT_TRUE(has_pair);
}

TEST_F(CandidateTest, GeneratesJoinColumnCandidates) {
  auto workload = MakeWorkload(
      db_.catalog(),
      {"SELECT o.amount FROM orders o, customers c "
       "WHERE o.customer_id = c.cid"});
  ASSERT_TRUE(workload.ok());
  auto candidates = GenerateCandidateIndexes(db_.catalog(), *workload);
  ASSERT_TRUE(candidates.ok());
  bool join_col = false;
  for (const WhatIfIndexDef& def : *candidates) {
    if (def.table == orders_ && def.columns == std::vector<ColumnId>{1}) {
      join_col = true;
    }
  }
  EXPECT_TRUE(join_col);
}

TEST_F(CandidateTest, RespectsWidthAndCountCaps) {
  auto workload = MakeSdssWorkload(db_.catalog());
  // SDSS tables are absent in this db; build a dedicated one instead.
  ASSERT_FALSE(workload.ok());
  auto small = MakeWorkload(
      db_.catalog(),
      {"SELECT id FROM orders WHERE region = 'x' AND amount > 1 AND "
       "customer_id = 2 AND flag = true"});
  ASSERT_TRUE(small.ok());
  CandidateOptions options;
  options.max_width = 1;
  auto singles = GenerateCandidateIndexes(db_.catalog(), *small, options);
  ASSERT_TRUE(singles.ok());
  for (const WhatIfIndexDef& def : *singles) {
    EXPECT_EQ(def.columns.size(), 1u);
  }
  options.max_width = 2;
  options.max_candidates = 3;
  auto capped = GenerateCandidateIndexes(db_.catalog(), *small, options);
  ASSERT_TRUE(capped.ok());
  EXPECT_LE(capped->size(), 3u);
}

TEST_F(CandidateTest, DedupesAcrossQueries) {
  auto workload = MakeWorkload(
      db_.catalog(), {"SELECT id FROM orders WHERE amount > 1",
                      "SELECT region FROM orders WHERE amount < 5"});
  ASSERT_TRUE(workload.ok());
  auto candidates = GenerateCandidateIndexes(db_.catalog(), *workload);
  ASSERT_TRUE(candidates.ok());
  int amount_singles = 0;
  for (const WhatIfIndexDef& def : *candidates) {
    if (def.table == orders_ && def.columns == std::vector<ColumnId>{2}) {
      ++amount_singles;
    }
  }
  EXPECT_EQ(amount_singles, 1);
}

class IndexAdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    orders_ = testing_util::MakeOrdersTable(&db_, 20000);
    customers_ = testing_util::MakeCustomersTable(&db_, 2000);
    auto workload = MakeWorkload(
        db_.catalog(),
        {
            "SELECT amount FROM orders WHERE id = 123",
            "SELECT id FROM orders WHERE id BETWEEN 100 AND 120",
            "SELECT o.amount FROM orders o, customers c "
            "WHERE o.customer_id = c.cid AND c.cid = 5",
            "SELECT count(*) FROM customers WHERE score > 99",
            "SELECT region, count(*) FROM orders GROUP BY region",
        });
    PARINDA_CHECK_OK(workload);
    workload_ = std::move(*workload);
  }

  Database db_;
  TableId orders_ = kInvalidTableId;
  TableId customers_ = kInvalidTableId;
  Workload workload_;
};

TEST_F(IndexAdvisorTest, IlpFindsBeneficialIndexes) {
  IndexAdvisor advisor(db_.catalog(), workload_);
  auto advice = advisor.SuggestWithIlp();
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  EXPECT_FALSE(advice->indexes.empty());
  EXPECT_LT(advice->optimized_cost, advice->base_cost);
  EXPECT_TRUE(advice->proved_optimal);
  EXPECT_GT(advice->Speedup(), 1.0);
  // The point-lookup index on orders.id must be in the suggestion.
  bool has_id_index = false;
  for (const SuggestedIndex& s : advice->indexes) {
    if (s.def.table == orders_ && !s.def.columns.empty() &&
        s.def.columns[0] == 0) {
      has_id_index = true;
      EXPECT_FALSE(s.used_by.empty());
    }
  }
  EXPECT_TRUE(has_id_index);
}

TEST_F(IndexAdvisorTest, PerQueryBenefitsReported) {
  IndexAdvisor advisor(db_.catalog(), workload_);
  auto advice = advisor.SuggestWithIlp();
  ASSERT_TRUE(advice.ok());
  ASSERT_EQ(advice->per_query_base.size(), 5u);
  ASSERT_EQ(advice->per_query_optimized.size(), 5u);
  for (size_t q = 0; q < 5; ++q) {
    EXPECT_LE(advice->per_query_optimized[q],
              advice->per_query_base[q] + 1e-6);
  }
  // The point query (q0) must improve dramatically.
  EXPECT_LT(advice->per_query_optimized[0], advice->per_query_base[0] * 0.2);
}

TEST_F(IndexAdvisorTest, StorageBudgetRespected) {
  IndexAdvisorOptions options;
  options.storage_budget_bytes = 400.0 * kPageSize;  // tight budget
  IndexAdvisor advisor(db_.catalog(), workload_, options);
  auto advice = advisor.SuggestWithIlp();
  ASSERT_TRUE(advice.ok());
  EXPECT_LE(advice->total_size_bytes, options.storage_budget_bytes + 1.0);
}

TEST_F(IndexAdvisorTest, ZeroBudgetSuggestsNothing) {
  IndexAdvisorOptions options;
  options.storage_budget_bytes = 0.0;
  IndexAdvisor advisor(db_.catalog(), workload_, options);
  auto advice = advisor.SuggestWithIlp();
  ASSERT_TRUE(advice.ok());
  EXPECT_TRUE(advice->indexes.empty());
  EXPECT_DOUBLE_EQ(advice->optimized_cost, advice->base_cost);
}

TEST_F(IndexAdvisorTest, GreedyAlsoImproves) {
  IndexAdvisor advisor(db_.catalog(), workload_);
  auto advice = advisor.SuggestWithGreedy();
  ASSERT_TRUE(advice.ok());
  EXPECT_FALSE(advice->indexes.empty());
  EXPECT_LT(advice->optimized_cost, advice->base_cost);
}

TEST_F(IndexAdvisorTest, IlpAtLeastMatchesGreedyUnderBudget) {
  IndexAdvisorOptions options;
  options.storage_budget_bytes = 600.0 * kPageSize;
  IndexAdvisor ilp_advisor(db_.catalog(), workload_, options);
  auto ilp = ilp_advisor.SuggestWithIlp();
  ASSERT_TRUE(ilp.ok());
  IndexAdvisor greedy_advisor(db_.catalog(), workload_, options);
  auto greedy = greedy_advisor.SuggestWithGreedy();
  ASSERT_TRUE(greedy.ok());
  // The exact solver should never lose to greedy on the same model by more
  // than rounding noise.
  EXPECT_LE(ilp->optimized_cost, greedy->optimized_cost * 1.02);
}

TEST_F(IndexAdvisorTest, UsesInumCache) {
  IndexAdvisor advisor(db_.catalog(), workload_);
  auto advice = advisor.SuggestWithIlp();
  ASSERT_TRUE(advice.ok());
  // Far fewer optimizer calls than cost estimates — the INUM effect.
  EXPECT_GT(advice->inum_estimates, advice->optimizer_calls);
}

TEST(IndexAdvisorRetryTest, PrepareRerunsCleanlyAfterAFailedRun) {
  Database db;
  SdssConfig config;
  config.photoobj_rows = 3000;
  ASSERT_TRUE(BuildSdssDatabase(&db, config).ok());
  auto workload = MakeSdssWorkload(db.catalog());
  ASSERT_TRUE(workload.ok());
  IndexAdvisorOptions options;
  options.parallelism = 1;

  IndexAdvisor advisor(db.catalog(), *workload, options);
  failpoint::Configure("advisor.matrix", failpoint::Mode::kError);
  EXPECT_FALSE(advisor.SuggestWithIlp().ok());
  failpoint::ClearAll();
  // The same advisor rebuilds its pool instead of appending to the failed
  // run's, whose entries pointed into the freed candidate set.
  auto pool = advisor.Candidates();
  ASSERT_TRUE(pool.ok());
  auto retried = advisor.SuggestWithIlp();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();

  IndexAdvisor fresh(db.catalog(), *workload, options);
  auto fresh_pool = fresh.Candidates();
  ASSERT_TRUE(fresh_pool.ok());
  EXPECT_EQ(pool->size(), fresh_pool->size());
  auto expected = fresh.SuggestWithIlp();
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(retried->indexes.size(), expected->indexes.size());
  for (size_t s = 0; s < expected->indexes.size(); ++s) {
    EXPECT_EQ(retried->indexes[s].def.name, expected->indexes[s].def.name);
    EXPECT_EQ(retried->indexes[s].benefit, expected->indexes[s].benefit);
    EXPECT_EQ(retried->indexes[s].used_by, expected->indexes[s].used_by);
  }
  EXPECT_EQ(retried->optimized_cost, expected->optimized_cost);
  EXPECT_EQ(retried->per_query_optimized, expected->per_query_optimized);
}

/// The ILP advice for `workload` as index name -> size.
std::map<std::string, double> IlpIndexSizes(const Database& db,
                                            const Workload& workload,
                                            double* optimized_cost) {
  IndexAdvisorOptions options;
  options.parallelism = 1;
  IndexAdvisor advisor(db.catalog(), workload, options);
  auto advice = advisor.SuggestWithIlp();
  PARINDA_CHECK_OK(advice);
  PARINDA_CHECK(advice->proved_optimal);
  std::map<std::string, double> sizes;
  for (const SuggestedIndex& index : advice->indexes) {
    sizes[index.def.name] = index.size_bytes;
  }
  *optimized_cost = advice->optimized_cost;
  return sizes;
}

void ExpectOrderIndependentAdvice(const Database& db, Workload workload) {
  double cost = 0.0;
  const std::map<std::string, double> sizes =
      IlpIndexSizes(db, workload, &cost);
  ASSERT_FALSE(sizes.empty());
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(testing::Message() << "order seed " << seed);
    Random rng(seed);
    for (int i = workload.size() - 1; i > 0; --i) {
      std::swap(workload.queries[static_cast<size_t>(i)],
                workload.queries[static_cast<size_t>(rng.UniformInt(0, i))]);
    }
    double permuted_cost = 0.0;
    EXPECT_EQ(IlpIndexSizes(db, workload, &permuted_cost), sizes);
    EXPECT_NEAR(permuted_cost, cost, 1e-9 * cost);
  }
}

TEST(IlpOrderTest, SdssAdviceIndependentOfQueryOrder) {
  Database db;
  SdssConfig config;
  config.photoobj_rows = 3000;
  ASSERT_TRUE(BuildSdssDatabase(&db, config).ok());
  auto workload = MakeSdssWorkload(db.catalog());
  ASSERT_TRUE(workload.ok());
  ExpectOrderIndependentAdvice(db, std::move(*workload));
}

TEST(IlpOrderTest, TpchMiniAdviceIndependentOfQueryOrder) {
  Database db;
  ASSERT_TRUE(BuildTpchMiniDatabase(&db, TpchMiniConfig{}).ok());
  auto workload = MakeTpchMiniWorkload(db.catalog());
  ASSERT_TRUE(workload.ok());
  ExpectOrderIndependentAdvice(db, std::move(*workload));
}

}  // namespace
}  // namespace parinda

namespace parinda {
namespace {

TEST_F(IndexAdvisorTest, UpdateCostsDiscourageMarginalIndexes) {
  IndexAdvisor cheap(db_.catalog(), workload_);
  auto no_updates = cheap.SuggestWithIlp();
  ASSERT_TRUE(no_updates.ok());
  ASSERT_FALSE(no_updates->indexes.empty());
  EXPECT_DOUBLE_EQ(no_updates->total_maintenance_cost, 0.0);

  IndexAdvisorOptions options;
  options.update_rows[orders_] = 1e7;  // orders is update-hot
  IndexAdvisor expensive(db_.catalog(), workload_, options);
  auto with_updates = expensive.SuggestWithIlp();
  ASSERT_TRUE(with_updates.ok());
  // Every orders index now costs more to maintain than it saves.
  for (const SuggestedIndex& s : with_updates->indexes) {
    EXPECT_NE(s.def.table, orders_) << s.def.name;
  }
  EXPECT_LT(with_updates->indexes.size(), no_updates->indexes.size());
}

TEST_F(IndexAdvisorTest, ModerateUpdateRateReportsMaintenance) {
  IndexAdvisorOptions options;
  options.update_rows[orders_] = 10.0;  // mild
  IndexAdvisor advisor(db_.catalog(), workload_, options);
  auto advice = advisor.SuggestWithIlp();
  ASSERT_TRUE(advice.ok());
  ASSERT_FALSE(advice->indexes.empty());
  bool any_maintenance = false;
  for (const SuggestedIndex& s : advice->indexes) {
    if (s.def.table == orders_) {
      EXPECT_GT(s.maintenance_cost, 0.0);
      any_maintenance = true;
    }
  }
  EXPECT_TRUE(any_maintenance);
  EXPECT_GT(advice->total_maintenance_cost, 0.0);
}

TEST_F(IndexAdvisorTest, GreedyAlsoRespectsUpdateCosts) {
  IndexAdvisorOptions options;
  options.update_rows[orders_] = 1e7;
  options.update_rows[customers_] = 1e7;
  IndexAdvisor advisor(db_.catalog(), workload_, options);
  auto advice = advisor.SuggestWithGreedy();
  ASSERT_TRUE(advice.ok());
  EXPECT_TRUE(advice->indexes.empty());
}

TEST_F(IndexAdvisorTest, AdviceIsBitIdenticalAcrossParallelism) {
  // The parallel evaluation layer writes into pre-sized per-query slots, so
  // the benefit matrix — and everything derived from it — must be exactly
  // the same at parallelism 1 and 4: same recommended configuration, same
  // total benefit, same costs, bit for bit.
  auto run = [&](int parallelism) {
    IndexAdvisorOptions options;
    options.parallelism = parallelism;
    IndexAdvisor advisor(db_.catalog(), workload_, options);
    auto advice = advisor.SuggestWithIlp();
    PARINDA_CHECK_OK(advice);
    return std::move(*advice);
  };
  const IndexAdvice serial = run(1);
  const IndexAdvice parallel = run(4);

  ASSERT_EQ(parallel.indexes.size(), serial.indexes.size());
  double serial_benefit = 0.0;
  double parallel_benefit = 0.0;
  for (size_t s = 0; s < serial.indexes.size(); ++s) {
    EXPECT_EQ(parallel.indexes[s].def.name, serial.indexes[s].def.name);
    EXPECT_EQ(parallel.indexes[s].def.table, serial.indexes[s].def.table);
    EXPECT_EQ(parallel.indexes[s].def.columns, serial.indexes[s].def.columns);
    EXPECT_EQ(parallel.indexes[s].benefit, serial.indexes[s].benefit);
    EXPECT_EQ(parallel.indexes[s].used_by, serial.indexes[s].used_by);
    serial_benefit += serial.indexes[s].benefit;
    parallel_benefit += parallel.indexes[s].benefit;
  }
  EXPECT_EQ(parallel_benefit, serial_benefit);
  EXPECT_EQ(parallel.base_cost, serial.base_cost);
  EXPECT_EQ(parallel.optimized_cost, serial.optimized_cost);
  EXPECT_EQ(parallel.per_query_base, serial.per_query_base);
  EXPECT_EQ(parallel.per_query_optimized, serial.per_query_optimized);
  EXPECT_EQ(parallel.total_size_bytes, serial.total_size_bytes);
  EXPECT_EQ(parallel.optimizer_calls, serial.optimizer_calls);
}

TEST_F(IndexAdvisorTest, ExpiredDeadlineDegradesInsteadOfFailing) {
  // The anytime contract: a budget that expires before any work happened
  // still produces a well-formed (if empty-handed) advice, flagged degraded,
  // never an error and never a crash.
  IndexAdvisorOptions options;
  options.deadline = Deadline::After(0.0);
  IndexAdvisor advisor(db_.catalog(), workload_, options);
  auto advice = advisor.SuggestWithIlp();
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  EXPECT_TRUE(advice->degradation.degraded);
  EXPECT_FALSE(advice->degradation.fallbacks.empty());
  EXPECT_FALSE(advice->proved_optimal);
  // The summary names the rungs taken, for the REPL report.
  EXPECT_NE(advice->degradation.ToString().find("degraded"),
            std::string::npos);

  // Greedy has its own ladder (static ranking when the models are gone).
  IndexAdvisor greedy(db_.catalog(), workload_, options);
  auto greedy_advice = greedy.SuggestWithGreedy();
  ASSERT_TRUE(greedy_advice.ok()) << greedy_advice.status().ToString();
  EXPECT_TRUE(greedy_advice->degradation.degraded);
}

TEST_F(IndexAdvisorTest, InfiniteBudgetBitIdenticalToUnbudgeted) {
  // Deadline::Infinite() (== the default) never reads the clock, so a
  // budgeted run with an infinite budget is the unbudgeted run, bit for
  // bit, at any parallelism.
  IndexAdvisor plain_advisor(db_.catalog(), workload_);
  auto plain = plain_advisor.SuggestWithIlp();
  ASSERT_TRUE(plain.ok());
  for (int parallelism : {1, 4}) {
    SCOPED_TRACE(parallelism);
    IndexAdvisorOptions options;
    options.parallelism = parallelism;
    options.deadline = Deadline::Infinite();
    IndexAdvisor advisor(db_.catalog(), workload_, options);
    auto budgeted = advisor.SuggestWithIlp();
    ASSERT_TRUE(budgeted.ok());
    EXPECT_FALSE(budgeted->degradation.degraded);
    EXPECT_TRUE(budgeted->degradation.fallbacks.empty());
    ASSERT_EQ(budgeted->indexes.size(), plain->indexes.size());
    for (size_t s = 0; s < plain->indexes.size(); ++s) {
      EXPECT_EQ(budgeted->indexes[s].def.columns, plain->indexes[s].def.columns);
      EXPECT_EQ(budgeted->indexes[s].benefit, plain->indexes[s].benefit);
    }
    EXPECT_EQ(budgeted->base_cost, plain->base_cost);
    EXPECT_EQ(budgeted->optimized_cost, plain->optimized_cost);
    EXPECT_EQ(budgeted->per_query_base, plain->per_query_base);
    EXPECT_EQ(budgeted->per_query_optimized, plain->per_query_optimized);
  }
}

TEST_F(IndexAdvisorTest, GreedyAlsoBitIdenticalAcrossParallelism) {
  auto run = [&](int parallelism) {
    IndexAdvisorOptions options;
    options.parallelism = parallelism;
    IndexAdvisor advisor(db_.catalog(), workload_, options);
    auto advice = advisor.SuggestWithGreedy();
    PARINDA_CHECK_OK(advice);
    return std::move(*advice);
  };
  const IndexAdvice serial = run(1);
  const IndexAdvice parallel = run(4);
  ASSERT_EQ(parallel.indexes.size(), serial.indexes.size());
  for (size_t s = 0; s < serial.indexes.size(); ++s) {
    EXPECT_EQ(parallel.indexes[s].def.name, serial.indexes[s].def.name);
    EXPECT_EQ(parallel.indexes[s].benefit, serial.indexes[s].benefit);
  }
  EXPECT_EQ(parallel.optimized_cost, serial.optimized_cost);
}

// ---------------------------------------------------------------------------
// Golden bit-identity tests over the two demo schemas. The literals were
// captured from the pre-engine advisor with %.17g (exact double round-trip),
// so every EXPECT_EQ below is bit-for-bit. The engine-backed advisor (shared
// EvalContext + InumBank) must reproduce them exactly at any parallelism.
// ---------------------------------------------------------------------------

struct GoldenIndex {
  const char* name;
  double benefit;
  double size_bytes;
  std::vector<ColumnId> columns;
  std::vector<int> used_by;
};

void ExpectGoldenIndexes(const IndexAdvice& advice,
                         const std::vector<GoldenIndex>& golden) {
  ASSERT_EQ(advice.indexes.size(), golden.size());
  for (size_t s = 0; s < golden.size(); ++s) {
    SCOPED_TRACE(golden[s].name);
    EXPECT_EQ(advice.indexes[s].def.name, golden[s].name);
    EXPECT_EQ(advice.indexes[s].def.columns, golden[s].columns);
    EXPECT_EQ(advice.indexes[s].benefit, golden[s].benefit);
    EXPECT_EQ(advice.indexes[s].size_bytes, golden[s].size_bytes);
    EXPECT_EQ(advice.indexes[s].used_by, golden[s].used_by);
  }
}

TEST(BenefitMatrixTest, StoresOnlySetEntriesInAscendingOrder) {
  BenefitMatrix matrix;
  matrix.Reset(3);
  matrix.Set(0, 1, 2.5);
  matrix.Set(0, 4, 0.75);
  matrix.Set(2, 0, 9.0);
  matrix.Set(2, 3, 1.0);
  matrix.Set(2, 7, 4.0);

  EXPECT_EQ(matrix.NonZeros(), 5);
  EXPECT_EQ(matrix.Get(0, 1), 2.5);
  EXPECT_EQ(matrix.Get(0, 4), 0.75);
  EXPECT_EQ(matrix.Get(2, 7), 4.0);
  // Absent entries, including a whole empty row, read as zero.
  EXPECT_EQ(matrix.Get(0, 0), 0.0);
  EXPECT_EQ(matrix.Get(0, 2), 0.0);
  EXPECT_EQ(matrix.Get(0, 9), 0.0);
  EXPECT_EQ(matrix.Get(1, 1), 0.0);

  std::vector<std::pair<int, double>> row;
  matrix.ForEachInRow(2, [&](int j, double gain) { row.push_back({j, gain}); });
  const std::vector<std::pair<int, double>> want = {
      {0, 9.0}, {3, 1.0}, {7, 4.0}};
  EXPECT_EQ(row, want);
  int visited = 0;
  matrix.ForEachInRow(1, [&](int, double) { ++visited; });
  EXPECT_EQ(visited, 0);

  matrix.Reset(2);
  EXPECT_EQ(matrix.NonZeros(), 0);
  EXPECT_EQ(matrix.Get(0, 1), 0.0);
}

TEST(BenefitMatrixTest, SparseNnzMatchesIndependentRecount) {
  Database db;
  SdssConfig config;
  config.photoobj_rows = 3000;
  ASSERT_TRUE(BuildSdssDatabase(&db, config).ok());
  auto workload = MakeSdssWorkload(db.catalog());
  ASSERT_TRUE(workload.ok());

  IndexAdvisorOptions options;
  options.parallelism = 1;
  IndexAdvisor advisor(db.catalog(), *workload, options);
  auto candidates = advisor.Candidates();
  ASSERT_TRUE(candidates.ok()) << candidates.status().ToString();
  const int64_t nnz =
      metrics::Registry::Global().gauge("advisor.sparse_nnz").value();

  // Recount the stored entries from scratch: a (query, candidate) pair
  // belongs in the matrix exactly when the candidate's table is one of the
  // query's and the candidate lowers the query's INUM cost by more than the
  // advisor's epsilon.
  int64_t want = 0;
  for (const WorkloadQuery& query : workload->queries) {
    InumCostModel model(db.catalog(), query.stmt, options.params);
    ASSERT_TRUE(model.Init().ok());
    auto base = model.EstimateCost({});
    ASSERT_TRUE(base.ok());
    std::set<TableId> tables;
    for (const TableRef& ref : query.stmt.from) tables.insert(ref.bound_table);
    for (const IndexInfo* candidate : *candidates) {
      if (tables.count(candidate->table_id) == 0) continue;
      auto cost = model.EstimateCost({candidate});
      ASSERT_TRUE(cost.ok());
      if (*base - *cost > 1e-6) ++want;
    }
  }
  EXPECT_GT(want, 0);
  EXPECT_EQ(nnz, want);
}

TEST(IlpGoldenTest, SdssIlpAdviceBitIdenticalAcrossParallelism) {
  Database db;
  SdssConfig config;
  config.photoobj_rows = 3000;
  auto dataset = BuildSdssDatabase(&db, config);
  ASSERT_TRUE(dataset.ok());
  auto workload = MakeSdssWorkload(db.catalog());
  ASSERT_TRUE(workload.ok());

  const std::vector<GoldenIndex> kGolden = {
      {"cand_t1_c1", 30.075450860400053, 98304.0, {1}, {0}},
      {"cand_t1_c2", 55.378864558738513, 98304.0, {2}, {21}},
      {"cand_t1_c8", 55.691536964647682, 98304.0, {8}, {2, 27}},
      {"cand_t1_c9", 90.448379018509243, 98304.0, {9}, {3, 8, 24}},
      {"cand_t1_c3_c17", 25.825874555457347, 122880.0, {3, 17}, {4}},
      {"cand_t1_c0", 238.44, 98304.0, {0}, {5, 9, 11}},
      {"cand_t1_c3_c9", 117.13087808739164, 122880.0, {3, 9}, {7, 28}},
      {"cand_t3_c2", 19.678474037265726, 49152.0, {2}, {16, 17}},
      {"cand_t3_c0_c2", 22.488227954566248, 65536.0, {0, 2}, {15}},
      {"cand_t4_c0", 33.115000000000002, 73728.0, {0}, {18}},
      {"cand_t4_c2", 17.629426697282234, 73728.0, {2}, {19}},
      {"cand_t1_c5", 31.391786953988557, 98304.0, {5}, {20}},
      {"cand_t1_c4_c6", 86.119853905503035, 122880.0, {4, 6}, {22}},
      {"cand_t1_c20", 32.21458627177114, 98304.0, {20}, {26}}};
  const std::vector<double> kGoldenBase = {
      131,                127.95750000000001, 131,
      123.5,              132.44499999999999, 123.5,
      131.03,             131.30151484454402, 131,
      131.43000000000001, 8.5299999999999994, 132.04500000000002,
      7.7625000000000002, 132.95750000000001, 170.47500000000002,
      34.5,               30.800000000000001, 157.655,
      45.152499999999996, 45.447499999999998, 131,
      123.5,              131.0925,           12.685,
      131.94749999999999, 8.0525000000000002, 131,
      125.285,            131.78999999999999, 10.287712818167536};
  const std::vector<double> kGoldenOptimized = {
      100.92454913959995, 127.95750000000001, 99.079830511592945,
      98.050724545470899, 106.61912544454265, 12.01,
      131.03,             45.481629955163825, 97.959590167406233,
      103.97,             8.5299999999999994, 32.555000000000007,
      7.7625000000000002, 132.95750000000001, 170.47500000000002,
      12.011772045433752, 20.977787647527272, 147.798738315207,
      12.037499999999996, 27.818073302717764, 99.608213046011443,
      68.121135441261487, 44.972646094496966, 12.685,
      99.988806268613615, 8.0525000000000002, 98.78541372822886,
      101.51363252375937, 100.47900680198855, 10.287712818167536};

  for (int parallelism : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "parallelism=" << parallelism);
    IndexAdvisorOptions options;
    options.parallelism = parallelism;
    IndexAdvisor advisor(db.catalog(), *workload, options);
    auto advice = advisor.SuggestWithIlp();
    ASSERT_TRUE(advice.ok()) << advice.status().ToString();

    EXPECT_EQ(advice->base_cost, 2996.1292276627114);
    EXPECT_EQ(advice->optimized_cost, 2140.50088779719);
    EXPECT_EQ(advice->total_size_bytes, 1318912.0);
    EXPECT_TRUE(advice->proved_optimal);
    EXPECT_EQ(advice->optimizer_calls, 106);
    EXPECT_EQ(advice->inum_estimates, 1189);
    ExpectGoldenIndexes(*advice, kGolden);
    EXPECT_EQ(advice->per_query_base, kGoldenBase);
    EXPECT_EQ(advice->per_query_optimized, kGoldenOptimized);
  }
}

TEST(IlpGoldenTest, TpchMiniIlpAdviceBitIdenticalAcrossParallelism) {
  Database db;
  TpchMiniConfig config;
  auto dataset = BuildTpchMiniDatabase(&db, config);
  ASSERT_TRUE(dataset.ok());
  auto workload = MakeTpchMiniWorkload(db.catalog());
  ASSERT_TRUE(workload.ok());

  const std::vector<GoldenIndex> kGolden = {
      {"cand_t2_c6", 317.97633874999997, 966656.0, {6}, {1}},
      {"cand_t2_c7", 25.480000000000018, 876544.0, {7}, {11}},
      {"cand_t0_c0", 4.3574999999999875, 24576.0, {0}, {9}},
      {"cand_t1_c3", 36.155133333333424, 245760.0, {3}, {2}},
      {"cand_t1_c1", 116.57520288587179, 245760.0, {1}, {9}},
      {"cand_t1_c0", 152.73249999999999, 245760.0, {0}, {3}},
      {"cand_t2_c0", 693.21981291875363, 966656.0, {0}, {7}},
      {"cand_t3_c0", 19.732500000000002, 49152.0, {0}, {4}},
      {"cand_t1_c4_c3", 94.375682400000002, 360448.0, {4, 3}, {6}},
      {"cand_t3_c2", 0.76999999999998181, 49152.0, {2}, {8}}};
  const std::vector<double> kGoldenBase = {
      987.43127443751087, 867.58000000000004, 943.83500000000004,
      164.75,             31.75,              16.375,
      184.1225,           716.04999999999995, 856.21749999999997,
      181.22499999999999, 628.75030801014771, 1249.7550000000001};
  const std::vector<double> kGoldenOptimized = {
      987.43127443751087, 549.60366125000007, 907.67986666666661,
      12.0175,            12.0175,            16.375,
      89.7468176,         22.830187081246336, 855.44749999999999,
      60.29229711412821,  628.75030801014771, 1224.2750000000001};

  for (int parallelism : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "parallelism=" << parallelism);
    IndexAdvisorOptions options;
    options.parallelism = parallelism;
    IndexAdvisor advisor(db.catalog(), *workload, options);
    auto advice = advisor.SuggestWithIlp();
    ASSERT_TRUE(advice.ok()) << advice.status().ToString();

    EXPECT_EQ(advice->base_cost, 6827.8415824476588);
    EXPECT_EQ(advice->optimized_cost, 5366.4669121596999);
    EXPECT_EQ(advice->total_size_bytes, 4030464.0);
    EXPECT_TRUE(advice->proved_optimal);
    EXPECT_EQ(advice->optimizer_calls, 96);
    EXPECT_EQ(advice->inum_estimates, 322);
    ExpectGoldenIndexes(*advice, kGolden);
    EXPECT_EQ(advice->per_query_base, kGoldenBase);
    EXPECT_EQ(advice->per_query_optimized, kGoldenOptimized);
  }
}

}  // namespace
}  // namespace parinda
