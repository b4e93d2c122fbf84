#include "engine/inum_bank.h"

namespace parinda {

InumBank::InumBank(const CatalogReader& catalog, const Workload& workload,
                   const CostParams& params)
    : catalog_(catalog), workload_(workload), params_(params) {
  slots_.resize(workload_.queries.size());
}

Result<InumCostModel*> InumBank::Model(int q, const Deadline* deadline) {
  Slot& slot = slots_[static_cast<size_t>(q)];
  if (!slot.init_ok) {
    // A fresh slot, or one whose last Init failed. Assign before Init so a
    // model whose Init is cut short by the budget still surfaces through
    // Get(): its optimizer calls happened and must stay observable in the
    // advisor's aggregate counters.
    slot.model = std::make_unique<InumCostModel>(
        catalog_, workload_.queries[static_cast<size_t>(q)].stmt, params_);
    slot.model->set_deadline(deadline);
    PARINDA_RETURN_IF_ERROR(slot.model->Init());
    slot.init_ok = true;
  } else {
    slot.model->set_deadline(deadline);
  }
  return slot.model.get();
}

InumCostModel* InumBank::Get(int q) const {
  return slots_[static_cast<size_t>(q)].model.get();
}

int64_t InumBank::TotalOptimizerCalls() const {
  int64_t total = 0;
  for (const Slot& slot : slots_) {
    if (slot.model != nullptr) total += slot.model->optimizer_calls();
  }
  return total;
}

int64_t InumBank::TotalEstimatesServed() const {
  int64_t total = 0;
  for (const Slot& slot : slots_) {
    if (slot.model != nullptr) total += slot.model->estimates_served();
  }
  return total;
}

}  // namespace parinda
