/**
 * @file
 * Named counters, gauges, and log-bucketed histograms for the serving
 * stack — the measured half of the paper's measured-vs-analytic
 * performance discipline.
 *
 * The paper's contribution is *analytic* accounting: closed-form
 * cycle counts and PE-efficiency ratios (§4–§5) that predict array
 * performance from (w, n̄, m̄, p̄) alone. A serving installation needs
 * the measured side of that ledger kept continuously, per shard, and
 * mergeable across shards without error. Three primitives cover it:
 *
 *  - Counter:   monotone u64 (requests, cache hits, bytes).
 *  - Gauge:     instantaneous i64/double with an explicit cross-shard
 *               aggregation rule (Sum for queue depths and connection
 *               counts, Max for worst-case drift).
 *  - Histogram: log-bucketed value distribution with *bounded memory*
 *               and *exact merge* — two snapshots merge by adding
 *               bucket counts, so cluster-level p50/p99 computed from
 *               the merged histogram equals what a single process
 *               observing every sample would report, to within one
 *               bucket's resolution.
 *
 * Any instrument can be one series of a labelled family: its registry
 * name is the series key `family{k="v",…}` built by seriesKey(), so
 * labelled series travel, merge and delta exactly like unlabelled
 * ones, and renderPrometheus() groups them under one # TYPE per
 * family. Labels must come from a small closed set (engine, problem
 * kind, execution mode, backend index) — never from client-chosen
 * values such as problem shapes, which would grow the registry
 * without bound.
 *
 * Bucket scheme: bucket 0 catches values below kHistMinValue
 * (including zero/negative/NaN), then geometric buckets with growth
 * 2^(1/8) per step (~9% width) up to kHistMaxValue, then one overflow
 * bucket — ~295 buckets total, u64 each, so a histogram is a few KiB
 * regardless of sample count. Quantiles come from a cumulative walk
 * with linear interpolation inside the winning bucket, clamped to the
 * recorded [min, max], so worst-case quantile error is half a bucket
 * width (~4.5% relative).
 *
 * Registries are plain mutex-protected maps: metric updates happen at
 * request granularity (hundreds of microseconds of simulation per
 * request), so a ~20ns uncontended lock is noise; snapshot() gives a
 * consistent point-in-time copy for export or merging.
 */

#ifndef SAP_OBS_METRICS_HH
#define SAP_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sap {

//----------------------------------------------------------------------
// Histogram buckets.
//----------------------------------------------------------------------

/** Values below this land in the underflow bucket (µs scale: 10ns). */
constexpr double kHistMinValue = 0.01;

/** Per-bucket geometric growth factor: 2^(1/8). */
constexpr double kHistGrowth = 1.0905077326652577;

/** Number of geometric buckets between min and overflow. Covers
 *  kHistMinValue * kHistGrowth^292 ≈ 1.1e9 µs (~18 minutes) before
 *  the overflow bucket takes over. */
constexpr std::size_t kHistGeomBuckets = 293;

/** Total buckets: underflow + geometric + overflow. */
constexpr std::size_t kHistBuckets = kHistGeomBuckets + 2;

/** Bucket index for @p v (NaN and sub-min values map to bucket 0). */
std::size_t histBucketOf(double v);

/** Inclusive upper bound of bucket @p i (+inf for the overflow). */
double histBucketUpper(std::size_t i);

/** Lower bound of bucket @p i (0 for the underflow bucket). */
double histBucketLower(std::size_t i);

/**
 * Point-in-time copy of a histogram: the value-bearing type that
 * travels on the wire and merges across shards.
 */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0; ///< meaningful only when count > 0
    double max = 0; ///< meaningful only when count > 0
    /** Sparse bucket counts: parallel arrays, indices ascending. */
    std::vector<std::uint32_t> bucketIndex;
    std::vector<std::uint64_t> bucketCount;

    double mean() const { return count ? sum / double(count) : 0; }

    /**
     * Quantile estimate for q in [0, 1] by cumulative bucket walk
     * with linear interpolation, clamped to [min, max]. Exact merge
     * means quantile(merged) == quantile(union of samples) to within
     * one bucket (~9% relative).
     */
    double quantile(double q) const;

    /** Exact merge: bucket-wise count addition. */
    void merge(const HistogramSnapshot &other);
};

//----------------------------------------------------------------------
// Live metric instruments.
//----------------------------------------------------------------------

/** Monotone event count. Mutex-protected: updates happen at request
 *  granularity, so an uncontended lock is noise (see file comment). */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        std::lock_guard<std::mutex> lock(mu_);
        value_ += n;
    }
    std::uint64_t value() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return value_;
    }

  private:
    mutable std::mutex mu_;
    std::uint64_t value_ = 0;
};

/** How a gauge combines across shards in a cluster snapshot. */
enum class GaugeAgg : std::uint8_t
{
    Sum = 0, ///< additive quantities: queue depth, connections
    Max = 1, ///< worst-case quantities: cycle drift
};

/** Instantaneous value with an explicit cross-shard rule. */
class Gauge
{
  public:
    explicit Gauge(GaugeAgg agg = GaugeAgg::Sum) : agg_(agg) {}

    void set(double v)
    {
        std::lock_guard<std::mutex> lock(mu_);
        value_ = v;
    }
    void add(double d)
    {
        std::lock_guard<std::mutex> lock(mu_);
        value_ += d;
    }
    /** set(v) only if v exceeds the current value (for Max gauges). */
    void setMax(double v)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (v > value_)
            value_ = v;
    }
    double value() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return value_;
    }
    GaugeAgg agg() const { return agg_; }

  private:
    mutable std::mutex mu_;
    double value_ = 0;
    GaugeAgg agg_;
};

/** Live log-bucketed histogram; record() is O(1) and lock-cheap. */
class Histogram
{
  public:
    void record(double v);
    HistogramSnapshot snapshot() const;

  private:
    mutable std::mutex mu_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
    /** Dense while live (fixed ~2.3 KiB); sparse on snapshot. */
    std::uint64_t buckets_[kHistBuckets] = {};
};

//----------------------------------------------------------------------
// Registry and snapshots.
//----------------------------------------------------------------------

/** One gauge's exported state. */
struct GaugeValue
{
    double value = 0;
    GaugeAgg agg = GaugeAgg::Sum;
};

/**
 * Point-in-time copy of a whole registry. Ordered maps so exports and
 * wire encodings are deterministic.
 */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, GaugeValue> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /** Exact merge: counters/histogram buckets add; gauges follow
     *  their GaugeAgg. */
    void merge(const MetricsSnapshot &other);
};

/**
 * Named-metric owner for one component (a shard, a net server). Names
 * follow the Prometheus convention: lowercase, underscores, unit
 * suffix (e.g. "serve_queue_wait_micros"). Instruments are created on
 * first use and live as long as the registry; the returned references
 * stay valid, so hot paths look up once and cache the pointer.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name, GaugeAgg agg = GaugeAgg::Sum);
    Histogram &histogram(const std::string &name);

    MetricsSnapshot snapshot() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/** Label set of one series; ordered by key, so one set is one key. */
using MetricLabels = std::map<std::string, std::string>;

/**
 * The registry name of the series of @p family with @p labels:
 * `family{k1="v1",k2="v2"}` with keys in sorted order and values
 * escaped per the exposition format (`\` → `\\`, `"` → `\"`,
 * newline → `\n`); just @p family when @p labels is empty.
 */
std::string seriesKey(const std::string &family,
                      const MetricLabels &labels);

/**
 * Split a series key into its family and its label block, braces
 * included: `f{a="1"}` → {"f", `{a="1"}`}; an unlabelled name
 * yields an empty block.
 */
std::pair<std::string, std::string>
splitSeriesKey(const std::string &key);

/** Merge @p parts into one snapshot (exact; see MetricsSnapshot). */
MetricsSnapshot mergeMetrics(const std::vector<MetricsSnapshot> &parts);

/**
 * The interval histogram @p now − @p prev, bucket-by-bucket — the
 * inverse of merge(), and exact for the same reason. Min/max are not
 * subtractable, so the delta takes its bounds from the populated
 * buckets (the overflow bucket reports the last finite boundary);
 * quantiles stay exact to bucket resolution. A count that shrank
 * (restarted source) clamps to the @p now value bucket-wise rather
 * than underflowing.
 */
HistogramSnapshot histogramDelta(const HistogramSnapshot &now,
                                 const HistogramSnapshot &prev);

/**
 * The interval snapshot @p now − @p prev: counters subtract (clamped
 * at 0 on restarts; a counter absent from @p prev reports its full
 * @p now value), gauges pass through their current value (deltas of
 * instantaneous values are meaningless), histograms go through
 * histogramDelta(). Metrics absent from @p now are omitted.
 */
MetricsSnapshot metricsDelta(const MetricsSnapshot &now,
                             const MetricsSnapshot &prev);

/**
 * Render a snapshot as Prometheus text exposition: one # TYPE comment
 * per family, then each of its series (cumulative _bucket{le="..."}
 * lines, _sum and _count for histograms).
 */
std::string renderPrometheus(const MetricsSnapshot &snap);

/**
 * Same, with @p labels attached to every sample line ahead of the
 * series' own labels (and the histogram `le` label); they must not
 * reuse a series label name. Label values are escaped as in
 * seriesKey().
 */
std::string renderPrometheus(const MetricsSnapshot &snap,
                             const MetricLabels &labels);

/**
 * Render a snapshot as a JSON object (strict RFC 8259): top-level
 * "counters", "gauges" (value + agg), and "histograms" (count, sum,
 * min, max, mean, p50/p90/p99, sparse buckets). Deterministic: map
 * order in, same text out.
 */
std::string renderMetricsJson(const MetricsSnapshot &snap);

} // namespace sap

#endif // SAP_OBS_METRICS_HH
