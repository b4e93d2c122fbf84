#ifndef PARINDA_ENGINE_CACHE_GOVERNOR_H_
#define PARINDA_ENGINE_CACHE_GOVERNOR_H_

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"

namespace parinda {

/// Byte budget for the engine's evaluation caches. 0 means unlimited — the
/// pre-governor behavior, and the default everywhere.
struct MemoryBudget {
  int64_t bytes = 0;
  bool limited() const { return bytes > 0; }
};

/// LRU eviction across the engine's caches (DESIGN.md §14).
///
/// The engine's cost cache (WorkloadEvaluator's L1/L2/base entries) grows
/// without bound on long interactive sessions. The governor bounds it: each
/// cache registers as a *shard* with an eviction callback, reports every
/// insert/hit as a `Touch(shard, id, bytes)`, and when tracked bytes exceed
/// the budget the governor evicts least-recently-touched entries (across all
/// shards) until the total fits, invoking the owning shard's callback to
/// drop the entry. Eviction only discards *caches*: the owner re-plans on
/// the next miss, so a budgeted run degrades gracefully to more planner
/// calls — never to a wrong cost, and never to an OOM.
///
/// The entry most recently touched is pinned for the duration of its Touch:
/// it is never chosen as a victim, so an entry just handed out by the
/// touching cache cannot be freed under the caller.
///
/// Observability: evictions bump `engine.cache_evictions` and the tracked
/// total mirrors into the `engine.cache_bytes` gauge; pipelines record
/// eviction activity in their DegradationReport (see DesignSession).
///
/// Thread-safety: all methods are mutex-guarded; eviction callbacks run
/// *under* the governor mutex and therefore must not call back into the
/// governor (they only erase from their own cache, taking at most the
/// cache's own lock — lock order is governor before cache, and caches never
/// call Touch while holding their lock).
class CacheGovernor {
 public:
  /// Drops the entry named `id` from the owning cache. Must tolerate ids the
  /// cache no longer holds.
  using EvictFn = std::function<void(const std::string& id)>;

  explicit CacheGovernor(MemoryBudget budget);

  CacheGovernor(const CacheGovernor&) = delete;
  CacheGovernor& operator=(const CacheGovernor&) = delete;

  /// Adds a shard and returns its handle. Call during setup, before any
  /// Touch.
  int RegisterShard(std::string name, EvictFn evict);

  /// Records that `id` (owned by `shard`) was inserted or served, now
  /// costing `bytes`; refreshes its recency and evicts colder entries until
  /// the tracked total fits the budget. The `engine.evict` failpoint fires
  /// whenever eviction is needed; its injected error propagates so chaos
  /// sweeps see eviction trouble as a clean Status.
  [[nodiscard]] Status Touch(int shard, const std::string& id, int64_t bytes);

  /// Stops tracking one entry / a whole shard's entries without invoking the
  /// eviction callback (the owner already dropped them, e.g. on rebuild).
  void Forget(int shard, const std::string& id);
  void ForgetShard(int shard);

  struct Stats {
    /// Bytes currently tracked across all shards.
    int64_t tracked_bytes = 0;
    /// Highest tracked total observed *after* eviction settled — the figure
    /// the budget acceptance test compares against the budget.
    int64_t peak_bytes = 0;
    int64_t evictions = 0;
    int64_t evicted_bytes = 0;
  };
  Stats stats() const;

  int64_t budget_bytes() const { return budget_.bytes; }

 private:
  struct Entry {
    int shard = 0;
    std::string id;
    int64_t bytes = 0;
  };
  struct Shard {
    std::string name;
    EvictFn evict;
    /// id -> position in lru_ (most recent at the back).
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
  };

  void EvictLocked(std::list<Entry>::iterator victim) PARINDA_REQUIRES(mu_);

  const MemoryBudget budget_;
  mutable Mutex mu_;
  std::vector<Shard> shards_ PARINDA_GUARDED_BY(mu_);
  std::list<Entry> lru_ PARINDA_GUARDED_BY(mu_);
  Stats stats_ PARINDA_GUARDED_BY(mu_);
};

}  // namespace parinda

#endif  // PARINDA_ENGINE_CACHE_GOVERNOR_H_
