#ifndef PARINDA_ENGINE_INUM_BANK_H_
#define PARINDA_ENGINE_INUM_BANK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "common/deadline.h"
#include "common/status.h"
#include "inum/inum.h"
#include "optimizer/cost_params.h"
#include "workload/workload.h"

namespace parinda {

/// Engine-owned bank of per-query INUM cost models: one lazily built
/// `InumCostModel` slot per workload query, all under the cost parameters
/// bound at construction. The index advisor's benefit matrix is its user.
///
/// Thread-compatibility: slots are disjoint. Concurrent `Model()` calls are
/// safe iff they target distinct `q` (the advisor's ParallelFor contract);
/// the aggregate accessors must only run after workers have joined.
class InumBank {
 public:
  /// `catalog` and `workload` must outlive the bank; `params` is copied.
  InumBank(const CatalogReader& catalog, const Workload& workload,
           const CostParams& params);

  InumBank(const InumBank&) = delete;
  InumBank& operator=(const InumBank&) = delete;

  /// The model for query `q`, built (and Init()ed) on first use and rebuilt
  /// when the slot's previous Init failed. `deadline` is re-armed on every
  /// call (it may be null) and must outlive the model's use. On Init failure
  /// the error propagates and the slot keeps the partially initialized
  /// model — its optimizer calls stay observable — but will rebuild on the
  /// next call.
  [[nodiscard]] Result<InumCostModel*> Model(int q, const Deadline* deadline);

  /// The model for `q` if one was ever built (even if Init failed);
  /// nullptr otherwise.
  InumCostModel* Get(int q) const;

  /// Sum of optimizer calls / served estimates across built models.
  int64_t TotalOptimizerCalls() const;
  int64_t TotalEstimatesServed() const;

 private:
  struct Slot {
    std::unique_ptr<InumCostModel> model;
    bool init_ok = false;
  };

  const CatalogReader& catalog_;
  const Workload& workload_;
  const CostParams params_;
  std::vector<Slot> slots_;
};

}  // namespace parinda

#endif  // PARINDA_ENGINE_INUM_BANK_H_
