/**
 * @file
 * obs/ metrics tests: histogram bucket geometry, exact cross-shard
 * merge (equals-union and associativity, bucket by bucket), quantile
 * accuracy against exact sample quantiles, gauge aggregation rules,
 * labelled series keys, Prometheus and JSON rendering, and the live
 * serving instrumentation — every layer's counters, the per-engine
 * breakdown, and the measured-vs-formula drift gauge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "base/random.hh"
#include "checkers.hh"
#include "cluster/cluster.hh"
#include "mat/generate.hh"
#include "obs/metrics.hh"

namespace sap {
namespace {

//---------------------------------------------------------------------
// Bucket geometry
//---------------------------------------------------------------------

TEST(HistBuckets, DegenerateValuesLandInUnderflow)
{
    EXPECT_EQ(histBucketOf(0.0), 0u);
    EXPECT_EQ(histBucketOf(-1.0), 0u);
    EXPECT_EQ(histBucketOf(kHistMinValue / 2), 0u);
    EXPECT_EQ(histBucketOf(std::nan("")), 0u);
}

TEST(HistBuckets, BoundariesAreInclusiveUpper)
{
    // kHistMinValue is the underflow bucket's upper bound; anything
    // at or above it is geometric.
    EXPECT_EQ(histBucketOf(kHistMinValue), 1u);
    for (std::size_t i : {std::size_t(1), std::size_t(7),
                          std::size_t(40), std::size_t(200),
                          kHistGeomBuckets}) {
        const double upper = histBucketUpper(i);
        EXPECT_EQ(histBucketOf(upper), i) << "at bucket " << i;
        EXPECT_EQ(histBucketOf(upper * (1 + 1e-9)),
                  std::min(i + 1, kHistGeomBuckets + 1))
            << "just above bucket " << i;
    }
}

TEST(HistBuckets, HugeValuesLandInOverflow)
{
    EXPECT_EQ(histBucketOf(1e18), kHistBuckets - 1);
    EXPECT_EQ(histBucketOf(std::numeric_limits<double>::infinity()),
              kHistBuckets - 1);
}

TEST(HistBuckets, LowerBoundIsPreviousUpper)
{
    EXPECT_EQ(histBucketLower(0), 0.0);
    for (std::size_t i = 1; i < kHistBuckets; ++i)
        EXPECT_EQ(histBucketLower(i), histBucketUpper(i - 1));
}

TEST(HistBuckets, EveryValueLandsInsideItsBucket)
{
    Rng rng(901);
    for (int k = 0; k < 2000; ++k) {
        // Log-uniform over the full geometric range.
        const double v =
            kHistMinValue * std::exp(rng.uniformReal(0.0, 20.0));
        const std::size_t b = histBucketOf(v);
        EXPECT_GT(v, histBucketLower(b) * (1 - 1e-12));
        EXPECT_LE(v, histBucketUpper(b) * (1 + 1e-12));
    }
}

//---------------------------------------------------------------------
// Merge: exact, associative, equals-union
//---------------------------------------------------------------------

std::vector<double>
drawSamples(std::uint64_t seed, int n)
{
    Rng rng(seed);
    std::vector<double> v;
    for (int i = 0; i < n; ++i)
        v.push_back(std::exp(rng.uniformReal(-6.0, 14.0)));
    return v;
}

HistogramSnapshot
snapshotOf(const std::vector<double> &samples)
{
    Histogram h;
    for (double v : samples)
        h.record(v);
    return h.snapshot();
}

void
expectSameHistogram(const HistogramSnapshot &a,
                    const HistogramSnapshot &b)
{
    EXPECT_EQ(a.count, b.count);
    // Sums accumulate in different orders on the two paths, so they
    // agree only up to floating-point associativity.
    EXPECT_NEAR(a.sum, b.sum, 1e-9 * std::max(std::abs(a.sum), 1.0));
    EXPECT_DOUBLE_EQ(a.min, b.min);
    EXPECT_DOUBLE_EQ(a.max, b.max);
    ASSERT_EQ(a.bucketIndex.size(), b.bucketIndex.size());
    for (std::size_t i = 0; i < a.bucketIndex.size(); ++i) {
        EXPECT_EQ(a.bucketIndex[i], b.bucketIndex[i]);
        EXPECT_EQ(a.bucketCount[i], b.bucketCount[i]);
    }
}

TEST(HistMerge, MergeEqualsUnionOfSamples)
{
    std::vector<double> s1 = drawSamples(910, 500);
    std::vector<double> s2 = drawSamples(911, 300);

    HistogramSnapshot merged = snapshotOf(s1);
    merged.merge(snapshotOf(s2));

    std::vector<double> all = s1;
    all.insert(all.end(), s2.begin(), s2.end());
    expectSameHistogram(merged, snapshotOf(all));
}

TEST(HistMerge, MergeIsAssociative)
{
    HistogramSnapshot a = snapshotOf(drawSamples(920, 200));
    HistogramSnapshot b = snapshotOf(drawSamples(921, 150));
    HistogramSnapshot c = snapshotOf(drawSamples(922, 250));

    HistogramSnapshot left = a;
    left.merge(b);
    left.merge(c);

    HistogramSnapshot bc = b;
    bc.merge(c);
    HistogramSnapshot right = a;
    right.merge(bc);

    expectSameHistogram(left, right);
}

TEST(HistMerge, MergeWithEmptyIsIdentity)
{
    HistogramSnapshot a = snapshotOf(drawSamples(930, 100));
    HistogramSnapshot before = a;
    a.merge(HistogramSnapshot{});
    expectSameHistogram(a, before);

    HistogramSnapshot empty;
    empty.merge(before);
    expectSameHistogram(empty, before);
}

//---------------------------------------------------------------------
// Quantiles
//---------------------------------------------------------------------

double
exactQuantile(std::vector<double> sorted, double q)
{
    std::sort(sorted.begin(), sorted.end());
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

TEST(HistQuantile, TracksExactQuantilesWithinBucketResolution)
{
    // One bucket is ~9% wide, so the histogram quantile must land
    // within ~one bucket of the exact sample quantile.
    for (std::uint64_t seed : {940u, 941u, 942u}) {
        std::vector<double> samples = drawSamples(seed, 10000);
        HistogramSnapshot snap = snapshotOf(samples);
        for (double q : {0.5, 0.9, 0.99}) {
            const double exact = exactQuantile(samples, q);
            const double est = snap.quantile(q);
            EXPECT_NEAR(est / exact, 1.0, 0.12)
                << "q=" << q << " seed=" << seed;
        }
    }
}

TEST(HistQuantile, MergedQuantileEqualsUnionQuantile)
{
    std::vector<double> s1 = drawSamples(950, 4000);
    std::vector<double> s2 = drawSamples(951, 6000);
    HistogramSnapshot merged = snapshotOf(s1);
    merged.merge(snapshotOf(s2));

    std::vector<double> all = s1;
    all.insert(all.end(), s2.begin(), s2.end());
    HistogramSnapshot whole = snapshotOf(all);

    for (double q : {0.25, 0.5, 0.75, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(merged.quantile(q), whole.quantile(q));
}

TEST(HistQuantile, ClampsToObservedRange)
{
    HistogramSnapshot snap = snapshotOf({5.0, 5.1, 5.2});
    EXPECT_GE(snap.quantile(0.0), snap.min);
    EXPECT_LE(snap.quantile(1.0), snap.max);
    EXPECT_EQ(snapshotOf({42.0}).quantile(0.5), 42.0);
    EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
}

//---------------------------------------------------------------------
// Counters, gauges, registries
//---------------------------------------------------------------------

TEST(Metrics, GaugesFollowTheirAggregationRule)
{
    MetricsSnapshot a;
    a.gauges["depth"] = {3.0, GaugeAgg::Sum};
    a.gauges["drift"] = {0.10, GaugeAgg::Max};
    MetricsSnapshot b;
    b.gauges["depth"] = {4.0, GaugeAgg::Sum};
    b.gauges["drift"] = {0.03, GaugeAgg::Max};

    MetricsSnapshot merged = mergeMetrics({a, b});
    EXPECT_DOUBLE_EQ(merged.gauges["depth"].value, 7.0);
    EXPECT_DOUBLE_EQ(merged.gauges["drift"].value, 0.10);
}

TEST(Metrics, CountersAddAcrossParts)
{
    MetricsSnapshot a, b;
    a.counters["reqs"] = 5;
    b.counters["reqs"] = 7;
    b.counters["only_b"] = 2;
    MetricsSnapshot merged = mergeMetrics({a, b});
    EXPECT_EQ(merged.counters["reqs"], 12u);
    EXPECT_EQ(merged.counters["only_b"], 2u);
}

TEST(Metrics, RegistryReturnsStableInstruments)
{
    MetricsRegistry reg;
    Counter &c1 = reg.counter("x_total");
    Counter &c2 = reg.counter("x_total");
    EXPECT_EQ(&c1, &c2);
    c1.add(3);
    c2.add();

    reg.gauge("g", GaugeAgg::Max).setMax(2.5);
    reg.gauge("g").setMax(1.0); // below current: no change
    reg.histogram("h_micros").record(10.0);

    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters["x_total"], 4u);
    EXPECT_DOUBLE_EQ(snap.gauges["g"].value, 2.5);
    EXPECT_EQ(snap.gauges["g"].agg, GaugeAgg::Max);
    EXPECT_EQ(snap.histograms["h_micros"].count, 1u);
}

TEST(Metrics, RenderPrometheusIsWellFormed)
{
    MetricsRegistry reg;
    reg.counter("reqs_total").add(9);
    reg.gauge("depth").set(2);
    Histogram &h = reg.histogram("lat_micros");
    for (double v : {1.0, 2.0, 4.0, 400.0})
        h.record(v);

    const std::string text = renderPrometheus(reg.snapshot());
    EXPECT_NE(text.find("# TYPE reqs_total counter\nreqs_total 9\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE depth gauge\ndepth 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE lat_micros histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_micros_bucket{le=\"+Inf\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_micros_count 4\n"), std::string::npos);
    EXPECT_NE(text.find("lat_micros_sum 407\n"), std::string::npos);
}

//---------------------------------------------------------------------
// Live serving instrumentation
//---------------------------------------------------------------------

ServeRequest
linearRequest(Index s, Index w, std::uint64_t seed,
              const Dense<Scalar> &a)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(a, randomIntVec(s, seed),
                                  randomIntVec(s, seed + 1), w);
    return req;
}

TEST(ServingMetrics, EveryLayerCountsAndDriftIsBounded)
{
    const Index s = 16, w = 4;
    const int kRequests = 12;

    Cluster::Options opts;
    opts.shards = 2;
    opts.threadsPerShard = 2;
    Cluster cluster(opts);

    Dense<Scalar> a = randomIntDense(s, s, 961);
    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < kRequests; ++i)
        futures.push_back(cluster.submit(linearRequest(
            s, w, 970 + 2 * static_cast<std::uint64_t>(i), a)));
    for (auto &f : futures)
        ASSERT_TRUE(f.get().ok);

    MetricsSnapshot snap = cluster.metricsSnapshot();
    EXPECT_EQ(snap.counters["serve_requests_total"],
              static_cast<std::uint64_t>(kRequests));
    // The per-engine breakdown: every request in one labelled series.
    EXPECT_EQ(snap.counters[seriesKey(
                  "serve_engine_requests_total",
                  engineLabels("linear", ProblemKind::MatVec,
                               ExecMode::Simulate))],
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(snap.counters["serve_failures_total"], 0u);
    // Same matrix every time: 1 miss (first request on the owning
    // shard), the rest hits.
    EXPECT_EQ(snap.counters["plan_cache_hits_total"] +
                  snap.counters["plan_cache_misses_total"],
              static_cast<std::uint64_t>(kRequests));
    EXPECT_GE(snap.counters["plan_cache_hits_total"],
              static_cast<std::uint64_t>(kRequests - 2));

    // All served: the queue is empty again (Sum gauge across shards).
    EXPECT_DOUBLE_EQ(snap.gauges["serve_queue_depth"].value, 0.0);

    // Latency and queue-wait histograms saw every request.
    EXPECT_EQ(snap.histograms["serve_latency_micros"].count,
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(snap.histograms["serve_queue_wait_micros"].count,
              static_cast<std::uint64_t>(kRequests));
    EXPECT_GT(snap.histograms["serve_latency_micros"].sum, 0.0);

    // The linear engine's measured cycles match the paper's closed
    // form exactly, so the worst-case drift gauge must stay at zero.
    ASSERT_NE(snap.gauges.find("serve_cycles_formula_drift"),
              snap.gauges.end());
    EXPECT_EQ(snap.gauges["serve_cycles_formula_drift"].agg,
              GaugeAgg::Max);
    EXPECT_NEAR(snap.gauges["serve_cycles_formula_drift"].value, 0.0,
                1e-12);
}

TEST(ServingMetrics, FailedRequestsCount)
{
    Cluster cluster(Cluster::Options{});
    ServeRequest req;
    req.engine = "no-such-engine";
    req.plan = EnginePlan::matVec(randomIntDense(4, 4, 980),
                                  randomIntVec(4, 981),
                                  randomIntVec(4, 982), 2);
    EXPECT_FALSE(cluster.submit(std::move(req)).get().ok);

    MetricsSnapshot snap = cluster.metricsSnapshot();
    EXPECT_EQ(snap.counters["serve_failures_total"], 1u);
}

//---------------------------------------------------------------------
// Interval deltas (the flight recorder / --watch math) and the edge
// cases per-interval subtraction surfaces.
//---------------------------------------------------------------------

TEST(HistDelta, QuantileOfEmptyHistogramIsZero)
{
    HistogramSnapshot empty;
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.quantile(0.0), 0.0);
    EXPECT_EQ(empty.quantile(0.5), 0.0);
    EXPECT_EQ(empty.quantile(1.0), 0.0);

    // Delta of identical snapshots is empty — and still quantiles to
    // 0 rather than dividing by a zero count.
    Histogram h;
    for (int i = 0; i < 50; ++i)
        h.record(100.0 + i);
    HistogramSnapshot snap = h.snapshot();
    HistogramSnapshot delta = histogramDelta(snap, snap);
    EXPECT_EQ(delta.count, 0u);
    EXPECT_EQ(delta.quantile(0.99), 0.0);
}

TEST(HistDelta, DeltaEqualsTheIntervalSamples)
{
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.record(10.0);
    HistogramSnapshot before = h.snapshot();
    for (int i = 0; i < 100; ++i)
        h.record(1000.0);
    HistogramSnapshot after = h.snapshot();

    HistogramSnapshot delta = histogramDelta(after, before);
    EXPECT_EQ(delta.count, 100u);
    EXPECT_NEAR(delta.sum, 100.0 * 1000.0, 1e-9);
    // The interval held only ~1000us samples; its quantiles must not
    // see the earlier 10us population.
    EXPECT_GT(delta.quantile(0.01), 500.0);
    EXPECT_LT(delta.quantile(0.99), 1200.0);
}

TEST(HistDelta, ShrunkenCountsClampInsteadOfUnderflowing)
{
    Histogram big;
    for (int i = 0; i < 10; ++i)
        big.record(50.0);
    Histogram small;
    for (int i = 0; i < 3; ++i)
        small.record(50.0);

    // "now" has fewer samples than "prev": a restarted source. The
    // delta clamps at now's counts bucket-wise.
    HistogramSnapshot delta =
        histogramDelta(small.snapshot(), big.snapshot());
    EXPECT_EQ(delta.count, 0u);
    EXPECT_GE(delta.sum, 0.0);
}

TEST(MetricsDelta, AppearingAndDisappearingMetrics)
{
    MetricsSnapshot prev;
    prev.counters["stays"] = 10;
    prev.counters["vanishes"] = 7;
    Histogram ph;
    ph.record(5.0);
    prev.histograms["old_hist"] = ph.snapshot();

    MetricsSnapshot now;
    now.counters["stays"] = 25;
    now.counters["appears"] = 4;
    Histogram nh;
    nh.record(6.0);
    now.histograms["new_hist"] = nh.snapshot();
    now.gauges["depth"] = GaugeValue{3.5, GaugeAgg::Sum};

    MetricsSnapshot delta = metricsDelta(now, prev);
    EXPECT_EQ(delta.counters["stays"], 15u);
    // Appeared mid-interval: its whole value is this interval's.
    EXPECT_EQ(delta.counters["appears"], 4u);
    // Disappeared: omitted, not emitted as zero or underflowed.
    EXPECT_EQ(delta.counters.count("vanishes"), 0u);
    EXPECT_EQ(delta.histograms.count("old_hist"), 0u);
    EXPECT_EQ(delta.histograms["new_hist"].count, 1u);
    // Gauges pass through their current value.
    EXPECT_EQ(delta.gauges["depth"].value, 3.5);
}

TEST(MetricsDelta, CounterResetClampsToNowValue)
{
    MetricsSnapshot prev, now;
    prev.counters["c"] = 1000;
    now.counters["c"] = 42; // restarted process
    EXPECT_EQ(metricsDelta(now, prev).counters["c"], 42u);
}

//---------------------------------------------------------------------
// Prometheus label rendering (exposition-format escaping rules).
//---------------------------------------------------------------------

TEST(Metrics, RenderPrometheusEscapesLabelValues)
{
    MetricsSnapshot snap;
    snap.counters["requests_total"] = 3;
    Histogram h;
    h.record(2.0);
    snap.histograms["latency_micros"] = h.snapshot();

    std::map<std::string, std::string> labels;
    labels["instance"] = "array \"7\"";
    labels["path"] = "C:\\data\nnext";

    const std::string text = renderPrometheus(snap, labels);
    // `"` → `\"`, `\` → `\\`, newline → `\n`, per the exposition
    // format's label-value escaping rules.
    EXPECT_NE(text.find("instance=\"array \\\"7\\\"\""),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("path=\"C:\\\\data\\nnext\""),
              std::string::npos)
        << text;
    // No raw newline may survive inside any sample line.
    for (std::size_t at = text.find("path=");
         at != std::string::npos; at = text.find("path=", at + 1)) {
        const std::size_t eol = text.find('\n', at);
        ASSERT_NE(eol, std::string::npos);
        EXPECT_NE(text.substr(at, eol - at).find("\\n"),
                  std::string::npos);
    }
    // Histogram bucket lines merge the shared labels with `le`.
    EXPECT_NE(text.find("latency_micros_bucket{instance="),
              std::string::npos)
        << text;
    EXPECT_NE(text.find(",le=\""), std::string::npos) << text;
    // And the labelless overload still renders the plain form.
    const std::string plain = renderPrometheus(snap);
    EXPECT_NE(plain.find("requests_total 3"), std::string::npos);
}

//---------------------------------------------------------------------
// Labelled series: keys, exposition, and JSON.
//---------------------------------------------------------------------

TEST(Metrics, SeriesKeysAreCanonicalAndEscaped)
{
    EXPECT_EQ(seriesKey("reqs_total", {}), "reqs_total");
    // Keys come out sorted whatever order the labels were built in.
    MetricLabels labels;
    labels["mode"] = "fast";
    labels["engine"] = "linear";
    EXPECT_EQ(seriesKey("reqs_total", labels),
              "reqs_total{engine=\"linear\",mode=\"fast\"}");
    // Values are escaped exactly as renderPrometheus escapes them.
    EXPECT_EQ(seriesKey("g", {{"path", "C:\\x \"q\"\nz"}}),
              "g{path=\"C:\\\\x \\\"q\\\"\\nz\"}");

    const auto [family, block] =
        splitSeriesKey(seriesKey("reqs_total", labels));
    EXPECT_EQ(family, "reqs_total");
    EXPECT_EQ(block, "{engine=\"linear\",mode=\"fast\"}");
    EXPECT_EQ(splitSeriesKey("reqs_total").first, "reqs_total");
    EXPECT_EQ(splitSeriesKey("reqs_total").second, "");
}

/** Occurrences of @p needle in @p text. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

/** Two labelled families plus an unlabelled one whose name sorts
 *  between a family's bare name and its labelled series. */
MetricsSnapshot
labelledSnapshot()
{
    MetricsSnapshot snap;
    snap.counters[seriesKey("reqs_total", {{"engine", "linear"}})] = 3;
    snap.counters[seriesKey("reqs_total", {{"engine", "hex"}})] = 2;
    snap.counters["reqs_total_x"] = 1;
    snap.gauges[seriesKey("inflight", {{"backend", "0"}})] =
        GaugeValue{4, GaugeAgg::Sum};
    snap.gauges[seriesKey("inflight", {{"backend", "1"}})] =
        GaugeValue{0, GaugeAgg::Sum};
    Histogram lin, hex;
    lin.record(5.0);
    lin.record(50.0);
    hex.record(7.0);
    snap.histograms[seriesKey("lat_micros", {{"engine", "linear"}})] =
        lin.snapshot();
    snap.histograms[seriesKey("lat_micros", {{"engine", "hex"}})] =
        hex.snapshot();
    return snap;
}

TEST(Metrics, LabelledSeriesRenderOneTypePerFamily)
{
    const MetricsSnapshot snap = labelledSnapshot();

    // Alone.
    const std::string text = renderPrometheus(snap);
    PromChecker alone(text);
    EXPECT_TRUE(alone.valid()) << alone.error() << "\n" << text;
    EXPECT_EQ(countOf(text, "# TYPE reqs_total counter\n"), 1u);
    EXPECT_EQ(countOf(text, "# TYPE reqs_total_x counter\n"), 1u);
    EXPECT_EQ(countOf(text, "# TYPE inflight gauge\n"), 1u);
    EXPECT_EQ(countOf(text, "# TYPE lat_micros histogram\n"), 1u);
    EXPECT_NE(text.find("reqs_total{engine=\"linear\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("inflight{backend=\"0\"} 4\n"),
              std::string::npos);

    // Histogram _bucket lines put `le` after the series labels; _sum
    // and _count carry the series labels alone.
    EXPECT_NE(text.find("lat_micros_bucket{engine=\"linear\",le=\""),
              std::string::npos);
    EXPECT_NE(text.find("lat_micros_bucket{engine=\"hex\",le=\"+Inf\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_micros_count{engine=\"linear\"} 2\n"),
              std::string::npos);

    // With external labels, which go ahead of the series' own.
    const std::string ext =
        renderPrometheus(snap, {{"instance", "array \"7\""}});
    PromChecker external(ext);
    EXPECT_TRUE(external.valid()) << external.error() << "\n" << ext;
    EXPECT_EQ(countOf(ext, "# TYPE lat_micros histogram\n"), 1u);
    EXPECT_NE(ext.find("reqs_total{instance=\"array \\\"7\\\"\","
                       "engine=\"hex\"} 2\n"),
              std::string::npos)
        << ext;
    EXPECT_NE(ext.find("lat_micros_bucket{instance=\"array \\\"7\\\"\","
                       "engine=\"linear\",le=\"+Inf\"} 2\n"),
              std::string::npos)
        << ext;
    EXPECT_NE(ext.find("reqs_total_x{instance=\"array \\\"7\\\"\"} 1\n"),
              std::string::npos)
        << ext;
}

/** Decode the JSON string literal starting at @p text[@p at] (the
 *  opening quote), for the escapes jsonEscape emits. */
std::string
jsonUnquote(const std::string &text, std::size_t at)
{
    std::string out;
    for (std::size_t i = at + 1; i < text.size() && text[i] != '"'; ++i) {
        if (text[i] != '\\') {
            out += text[i];
            continue;
        }
        const char e = text[++i];
        out += e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;
    }
    return out;
}

TEST(Metrics, LabelledKeysSurviveVarzJsonEscaping)
{
    MetricsSnapshot snap;
    const std::string key =
        seriesKey("reqs_total", {{"engine", "lin\"ear\\\n"}});
    snap.counters[key] = 9;
    const std::string json = renderMetricsJson(snap);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    const std::string prefix = "{\"counters\":{";
    ASSERT_EQ(json.compare(0, prefix.size(), prefix), 0) << json;
    EXPECT_EQ(jsonUnquote(json, prefix.size()), key) << json;
}

} // namespace
} // namespace sap
