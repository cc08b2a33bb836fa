#include "serve/plan_cache.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"

namespace sap {

Digest
combinePlanDigest(const std::string &engine_name, ProblemKind kind,
                  Index w, Digest a, Digest bmat)
{
    Digest d = fingerprintString(engine_name);
    d = combineDigests(d, static_cast<Digest>(kind));
    d = combineDigests(d, static_cast<Digest>(w));
    d = combineDigests(d, a);
    if (kind == ProblemKind::MatMul)
        d = combineDigests(d, bmat);
    return finalizeDigest(d);
}

Digest
planDigest(const std::string &engine_name, const EnginePlan &plan,
           const DenseHashFn &hash)
{
    auto hashOf = [&hash](const Dense<Scalar> &m) {
        return hash ? hash(m) : fingerprintDense(m);
    };
    return combinePlanDigest(
        engine_name, plan.kind, plan.w, hashOf(plan.a),
        plan.kind == ProblemKind::MatMul ? hashOf(plan.bmat) : 0);
}

PlanCache::PlanCache(std::size_t capacity, DenseHashFn hash)
    : capacity_(capacity), default_hash_(!hash),
      hash_(hash ? std::move(hash) : DenseHashFn(fingerprintDense))
{
}

std::shared_ptr<const PreparedPlan>
PlanCache::find(std::unique_lock<std::mutex> &lock, Digest digest,
                const std::string &engine_name, const EnginePlan &plan,
                std::vector<std::shared_ptr<const PreparedPlan>> &others)
{
    for (;;) {
        // Copy out the candidates not probed yet, in index order...
        std::vector<std::pair<bool, std::shared_ptr<const PreparedPlan>>>
            fresh;
        auto range = index_.equal_range(digest);
        for (auto it = range.first; it != range.second; ++it) {
            const Entry &e = *it->second;
            if (std::find(others.begin(), others.end(), e.plan) ==
                others.end())
                fresh.emplace_back(e.engine == engine_name, e.plan);
        }
        if (fresh.empty())
            break;
        // ...compare them bit for bit with the lock released...
        lock.unlock();
        std::shared_ptr<const PreparedPlan> match;
        for (auto &[same_engine, c] : fresh) {
            if (same_engine && c->builtFrom(plan)) {
                match = std::move(c);
                break;
            }
            others.push_back(std::move(c));
        }
        lock.lock();
        if (!match)
            continue; // entries filed meanwhile are compared in turn
        // ...and promote the match, unless it was evicted meanwhile.
        range = index_.equal_range(digest);
        for (auto it = range.first; it != range.second; ++it) {
            if (it->second->plan == match) {
                lru_.splice(lru_.begin(), lru_, it->second);
                break;
            }
        }
        return match;
    }
    return nullptr;
}

PlanCache::Prepared
PlanCache::prepare(const SystolicEngine &engine, const EnginePlan &plan,
                   std::optional<Digest> digest)
{
    const std::string engine_name = engine.name();
    // A caller's hint was computed with the default hash; recompute
    // when this cache hashes differently.
    const Digest key = digest && default_hash_
        ? *digest
        : planDigest(engine_name, plan, hash_);

    // Plans of other matrices met under this digest. A non-matching
    // probe is a hash collision even when a later entry matches, and
    // a request counts one however many it meets.
    std::vector<std::shared_ptr<const PreparedPlan>> others;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (auto cached = find(lock, key, engine_name, plan, others)) {
            ++stats_.hits;
            if (!others.empty())
                ++stats_.collisions;
            return {cached, /*hit=*/true};
        }
        ++stats_.misses;
    }

    // Build outside the lock: the transform is the expensive part
    // and must not serialize unrelated requests.
    std::shared_ptr<const PreparedPlan> built = engine.prepare(plan);

    // Capacity 0 = caching disabled: serve the build, keep nothing
    // (and with nothing resident, nothing collided).
    if (capacity_ == 0)
        return {built, /*hit=*/false};

    std::unique_lock<std::mutex> lock(mutex_);
    // Another thread may have inserted the same key meanwhile;
    // prefer the incumbent so the cache holds one plan per matrix.
    auto cached = find(lock, key, engine_name, plan, others);
    if (!others.empty())
        ++stats_.collisions;
    if (cached)
        return {cached, /*hit=*/false};

    lru_.push_front(Entry{key, engine_name, built});
    index_.emplace(key, lru_.begin());
    while (lru_.size() > capacity_)
        evictLocked();
    return {built, /*hit=*/false};
}

void
PlanCache::evictLocked()
{
    SAP_ASSERT(!lru_.empty(), "evicting from an empty cache");
    auto victim = std::prev(lru_.end());
    auto range = index_.equal_range(victim->digest);
    for (auto it = range.first; it != range.second; ++it) {
        if (it->second == victim) {
            index_.erase(it);
            break;
        }
    }
    lru_.erase(victim);
    ++stats_.evictions;
}

PlanCacheStats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
    stats_ = PlanCacheStats{};
}

} // namespace sap
