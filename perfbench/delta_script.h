// The seeded script of design deltas that the interactive_sdss workload
// replays: what a DBA does in the paper's scenario 1 loop, one feature at a
// time, re-checking the workload benefit after each.
#ifndef PERFBENCH_DELTA_SCRIPT_H_
#define PERFBENCH_DELTA_SCRIPT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "design/design_session.h"
#include "harness.h"
#include "parinda/parinda.h"
#include "storage/database.h"
#include "whatif/whatif_horizontal.h"
#include "whatif/whatif_index.h"
#include "whatif/whatif_join.h"
#include "whatif/whatif_table.h"
#include "workload/workload.h"

namespace perfbench {

struct Delta {
  enum class Kind { kAddIndex, kAddPartition, kAddRange, kAddJoin, kDrop };
  Kind kind = Kind::kAddIndex;
  parinda::WhatIfIndexDef index;
  parinda::WhatIfPartitionDef partition;
  parinda::RangePartitionDef range;
  parinda::WhatIfJoinDef join;
  /// kDrop: script position of the Add whose feature this removes.
  int target = -1;
  /// Queries that reference the delta's base tables (every query for a
  /// join-flag delta): the most the session may re-plan for it.
  int max_planner_calls = 0;
};

/// Rounds per script. A round is 18 deltas: nine adds and two drops that
/// build a design, then the seven drops that unwind it, newest first, back
/// through designs the session has already costed. The tables a round's
/// deltas land on rotate with periods 5, 2, 3 and 4, so 60 rounds hold every
/// combination once and every seed gets the same mix of delta kinds and
/// tables; the seed picks the columns, split points and join flags. Over 60
/// rounds those picks average out, so seeds differ little in how many
/// queries a pass re-plans.
inline constexpr int kRounds = 60;

/// Applies `delta` (script position `pos`) to `session`, recording the
/// overlay id of an added feature in `ids[pos]`.
parinda::Status ApplyDelta(parinda::DesignSession* session, const Delta& delta,
                           int pos, std::vector<parinda::OverlayId>* ids);

/// An incremental report of the validation session, with the feature set
/// it was computed for.
struct StatelessProbe {
  std::string where;
  parinda::InteractiveDesign design;
  parinda::InteractiveReport report;
};

struct DeltaScript {
  std::vector<Delta> deltas;
  /// Every fifth delta's report, to compare with a stateless evaluation
  /// after the timed loop, so that the comparison's sessions stay out of
  /// the peak RSS the workload reports.
  std::vector<StatelessProbe> probes;
};

/// Generates the script from `seed` and replays it once on a fresh session
/// over `db`, checking as it goes that the session accepts every delta and
/// that each Evaluate() re-plans at most `max_planner_calls` queries. Failed
/// checks go to `result`.
DeltaScript MakeDeltaScript(parinda::Database* db,
                            const parinda::Workload& workload, uint64_t seed,
                            RunResult* result);

/// Checks that each probe's incremental report is bit-identical to a
/// stateless Parinda::EvaluateDesign of the same feature set.
void CheckStatelessProbes(parinda::Database* db,
                          const parinda::Workload& workload,
                          const std::vector<StatelessProbe>& probes,
                          RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_DELTA_SCRIPT_H_
