#include "api/plan_cache.h"

#include <vector>

#include "obs/lock_ledger.h"
#include "obs/metrics.h"

namespace natix {

std::string PlanCache::MakeKey(std::string_view xpath,
                               const translate::TranslatorOptions& options) {
  // The option fingerprint is one character per strategy switch,
  // separated from the text by a byte that cannot occur in XPath.
  std::string key;
  key.reserve(xpath.size() + 8);
  key += options.stacked_outer_paths ? '1' : '0';
  key += options.push_duplicate_elimination ? '1' : '0';
  key += options.memoize_inner_paths ? '1' : '0';
  key += options.split_expensive_predicates ? '1' : '0';
  key += options.simplify_plan ? '1' : '0';
  key += options.limit_pushdown ? '1' : '0';
  // The result cap is a value, not a switch: plans baked with different
  // bounds must not alias in the cache.
  if (options.result_limit > 0) {
    key += std::to_string(options.result_limit);
  }
  key += '\n';
  key += xpath;
  return key;
}

std::shared_ptr<const PreparedQuery> PlanCache::Lookup(
    const std::string& key) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::LedgeredMutexLock lock(mutex_, obs::LockClass::kPlanCache);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    metrics.plan_cache_misses.Add();
    return nullptr;
  }
  ++hits_;
  metrics.plan_cache_hits.Add();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const PreparedQuery> plan) {
  if (capacity_ == 0) return;
  // Declared before the lock: evicted plans are destroyed after it is
  // released, so tearing down a plan never blocks other lookups.
  std::vector<std::shared_ptr<const PreparedQuery>> evicted;
  obs::LedgeredMutexLock lock(mutex_, obs::LockClass::kPlanCache);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // A racing thread prepared the same query first; keep the newer
    // plan and refresh recency.
    it->second->second = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(plan));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    evicted.push_back(std::move(lru_.back().second));
    lru_.pop_back();
    ++evictions_;
  }
}

void PlanCache::Clear() {
  obs::LedgeredMutexLock lock(mutex_, obs::LockClass::kPlanCache);
  index_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  obs::LedgeredMutexLock lock(mutex_, obs::LockClass::kPlanCache);
  return lru_.size();
}

uint64_t PlanCache::hit_count() const {
  obs::LedgeredMutexLock lock(mutex_, obs::LockClass::kPlanCache);
  return hits_;
}

uint64_t PlanCache::miss_count() const {
  obs::LedgeredMutexLock lock(mutex_, obs::LockClass::kPlanCache);
  return misses_;
}

uint64_t PlanCache::eviction_count() const {
  obs::LedgeredMutexLock lock(mutex_, obs::LockClass::kPlanCache);
  return evictions_;
}

}  // namespace natix
