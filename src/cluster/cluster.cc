#include "cluster/cluster.hh"

#include "base/logging.hh"

namespace sap {

namespace {

Shard::Options
shardOptions(const Cluster::Options &opts)
{
    Shard::Options shard;
    shard.threads = opts.threadsPerShard;
    shard.planCacheCapacity = opts.planCacheCapacityPerShard;
    return shard;
}

} // namespace

Cluster::Cluster() : Cluster(Options()) {}

Cluster::Cluster(const Options &opts)
    : opts_(opts), router_(opts.shards)
{
    SAP_ASSERT(opts_.shards >= 1, "cluster needs at least one shard");
    shards_.reserve(opts_.shards);
    for (std::size_t i = 0; i < opts_.shards; ++i)
        shards_.push_back(
            std::make_unique<Shard>(shardOptions(opts_)));
    SAP_LOG_DEBUG("cluster up: ", opts_.shards, " shards x ",
                  opts_.threadsPerShard, " threads, plan cache ",
                  opts_.planCacheCapacityPerShard, "/shard");
}

Digest
Cluster::routingKey(const ServeRequest &req)
{
    return req.digest ? *req.digest : planDigest(req.engine, req.plan);
}

std::size_t
Cluster::shardFor(const ServeRequest &req) const
{
    return router_.shardFor(routingKey(req));
}

Shard &
Cluster::route(ServeRequest &req)
{
    // The routing key doubles as the shard-side cache digest: stored
    // on the request before it moves into the shard, so the matrices
    // are hashed once per request.
    const Digest key = routingKey(req);
    req.digest = key;
    traceStamp(req.trace, TraceStage::Route);
    return *shards_[router_.shardFor(key)];
}

std::future<ServeResponse>
Cluster::submit(ServeRequest req)
{
    Shard &shard = route(req);
    return shard.submit(std::move(req));
}

void
Cluster::submitAsync(ServeRequest req, CompletionFn done)
{
    Shard &shard = route(req);
    shard.submitAsync(std::move(req), std::move(done));
}

MetricsSnapshot
Cluster::metricsSnapshot() const
{
    MetricsSnapshot merged;
    for (const std::unique_ptr<Shard> &shard : shards_)
        merged.merge(shard->metricsSnapshot());
    return merged;
}

double
Cluster::queueDepth() const
{
    double depth = 0;
    for (const std::unique_ptr<Shard> &shard : shards_)
        depth += shard->queueDepth();
    return depth;
}

const Shard &
Cluster::shard(std::size_t i) const
{
    SAP_ASSERT(i < shards_.size(), "shard index ", i,
               " out of range (", shards_.size(), " shards)");
    return *shards_[i];
}

} // namespace sap
