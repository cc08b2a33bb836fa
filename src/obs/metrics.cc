#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "base/logging.hh"
#include "base/string_util.hh"

namespace sap {

namespace {

/** log base kHistGrowth, precomputed. */
const double kInvLogGrowth = 1.0 / std::log(kHistGrowth);

} // namespace

std::size_t
histBucketOf(double v)
{
    if (!(v >= kHistMinValue)) // also catches NaN
        return 0;
    // Bucket i (1-based among geometric buckets) holds
    // (min*g^(i-1), min*g^i]; solve for i and nudge for float error
    // so exact boundary values land on the inclusive-upper side.
    double t = std::log(v / kHistMinValue) * kInvLogGrowth;
    std::size_t i = static_cast<std::size_t>(t) + 1;
    // Float rounding can push a boundary value one bucket high or
    // leave it one low; settle against the actual bounds.
    while (i > 1 && v <= histBucketUpper(i - 1))
        --i;
    while (i <= kHistGeomBuckets && v > histBucketUpper(i))
        ++i;
    return std::min(i, kHistGeomBuckets + 1);
}

double
histBucketUpper(std::size_t i)
{
    if (i == 0)
        return kHistMinValue;
    if (i > kHistGeomBuckets)
        return std::numeric_limits<double>::infinity();
    return kHistMinValue * std::pow(kHistGrowth, static_cast<double>(i));
}

double
histBucketLower(std::size_t i)
{
    if (i == 0)
        return 0;
    return histBucketUpper(i - 1);
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0;
    q = std::min(std::max(q, 0.0), 1.0);
    // Rank of the q-th sample (1-based, ceil convention).
    const double rank = q * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (std::size_t k = 0; k < bucketIndex.size(); ++k) {
        const std::uint64_t c = bucketCount[k];
        if (c == 0)
            continue;
        if (static_cast<double>(seen + c) >= rank) {
            const std::size_t b = bucketIndex[k];
            const double lo = histBucketLower(b);
            double hi = histBucketUpper(b);
            if (std::isinf(hi))
                hi = max; // overflow bucket: cap at observed max
            // Linear interpolation of the rank within the bucket.
            const double frac =
                (rank - static_cast<double>(seen)) / static_cast<double>(c);
            double v = lo + (hi - lo) * std::min(std::max(frac, 0.0), 1.0);
            return std::min(std::max(v, min), max);
        }
        seen += c;
    }
    return max;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        min = std::min(min, other.min);
        max = std::max(max, other.max);
    }
    count += other.count;
    sum += other.sum;
    // Merge two sorted sparse bucket lists by index.
    std::vector<std::uint32_t> idx;
    std::vector<std::uint64_t> cnt;
    idx.reserve(bucketIndex.size() + other.bucketIndex.size());
    cnt.reserve(idx.capacity());
    std::size_t a = 0, b = 0;
    while (a < bucketIndex.size() || b < other.bucketIndex.size()) {
        bool takeA = b >= other.bucketIndex.size() ||
                     (a < bucketIndex.size() &&
                      bucketIndex[a] <= other.bucketIndex[b]);
        bool takeB = a >= bucketIndex.size() ||
                     (b < other.bucketIndex.size() &&
                      other.bucketIndex[b] <= bucketIndex[a]);
        std::uint32_t i =
            takeA ? bucketIndex[a] : other.bucketIndex[b];
        std::uint64_t c = 0;
        if (takeA)
            c += bucketCount[a++];
        if (takeB && (!takeA || other.bucketIndex[b] == i))
            c += other.bucketCount[b++];
        idx.push_back(i);
        cnt.push_back(c);
    }
    bucketIndex = std::move(idx);
    bucketCount = std::move(cnt);
}

void
Histogram::record(double v)
{
    const std::size_t b = histBucketOf(v);
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    ++buckets_[b];
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    std::lock_guard<std::mutex> lock(mu_);
    snap.count = count_;
    snap.sum = sum_;
    snap.min = min_;
    snap.max = max_;
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
        if (buckets_[i]) {
            snap.bucketIndex.push_back(static_cast<std::uint32_t>(i));
            snap.bucketCount.push_back(buckets_[i]);
        }
    }
    return snap;
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const auto &[name, v] : other.counters)
        counters[name] += v;
    for (const auto &[name, gv] : other.gauges) {
        auto it = gauges.find(name);
        if (it == gauges.end()) {
            gauges[name] = gv;
        } else if (gv.agg == GaugeAgg::Max) {
            it->second.value = std::max(it->second.value, gv.value);
        } else {
            it->second.value += gv.value;
        }
    }
    for (const auto &[name, h] : other.histograms)
        histograms[name].merge(h);
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, GaugeAgg agg)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>(agg);
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[name, c] : counters_)
        snap.counters[name] = c->value();
    for (const auto &[name, g] : gauges_)
        snap.gauges[name] = GaugeValue{g->value(), g->agg()};
    for (const auto &[name, h] : histograms_)
        snap.histograms[name] = h->snapshot();
    return snap;
}

MetricsSnapshot
mergeMetrics(const std::vector<MetricsSnapshot> &parts)
{
    MetricsSnapshot merged;
    for (const auto &part : parts)
        merged.merge(part);
    return merged;
}

HistogramSnapshot
histogramDelta(const HistogramSnapshot &now, const HistogramSnapshot &prev)
{
    std::vector<std::uint64_t> dense(kHistBuckets, 0);
    for (std::size_t i = 0; i < now.bucketIndex.size(); ++i)
        dense[now.bucketIndex[i]] += now.bucketCount[i];
    for (std::size_t i = 0; i < prev.bucketIndex.size(); ++i) {
        std::uint64_t &d = dense[prev.bucketIndex[i]];
        d = d >= prev.bucketCount[i] ? d - prev.bucketCount[i] : 0;
    }
    HistogramSnapshot diff;
    diff.sum = now.sum - prev.sum;
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
        if (dense[i] == 0)
            continue;
        diff.bucketIndex.push_back(static_cast<std::uint32_t>(i));
        diff.bucketCount.push_back(dense[i]);
        diff.count += dense[i];
        if (diff.bucketIndex.size() == 1)
            diff.min = histBucketLower(i);
        // Overflow bucket has no finite upper bound; report the last
        // finite boundary instead.
        diff.max = i + 1 < kHistBuckets
                       ? histBucketUpper(i)
                       : histBucketUpper(kHistBuckets - 2);
    }
    // A restarted source can shrink sum while buckets clamp to now's
    // counts; keep sum consistent with "treat now as the whole story".
    if (diff.sum < 0)
        diff.sum = now.sum;
    return diff;
}

MetricsSnapshot
metricsDelta(const MetricsSnapshot &now, const MetricsSnapshot &prev)
{
    MetricsSnapshot delta;
    for (const auto &[name, v] : now.counters) {
        auto it = prev.counters.find(name);
        const std::uint64_t p =
            it == prev.counters.end() ? 0 : it->second;
        delta.counters[name] = v >= p ? v - p : v;
    }
    delta.gauges = now.gauges;
    for (const auto &[name, h] : now.histograms) {
        auto it = prev.histograms.find(name);
        delta.histograms[name] =
            it == prev.histograms.end() ? h
                                        : histogramDelta(h, it->second);
    }
    return delta;
}

namespace {

/** %g with enough digits to round-trip in practice for exposition. */
std::string
fmtDouble(double v)
{
    char buf[64];
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** A double as a strict-JSON number token. JSON has no Inf/NaN;
 *  non-finite values (the overflow bucket's +inf boundary) render as
 *  null, which every JSON consumer can at least parse. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** Exposition-format label *value* escaping: backslash, quote,
 *  newline. (Names are never escaped; callers must pass valid
 *  metric/label identifiers.) */
std::string
promLabelEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

/** Pre-rendered `key="value"` pairs, comma-joined (no braces). */
std::string
renderLabelPairs(const MetricLabels &labels)
{
    std::string out;
    for (const auto &[k, v] : labels) {
        if (!out.empty())
            out += ",";
        out += k + "=\"" + promLabelEscape(v) + "\"";
    }
    return out;
}

/**
 * The entries of @p series grouped by family, each with its label
 * pairs (the series key's block without braces). Map order alone
 * does not keep a family together: `a_total{…}` sorts after
 * `a_total_x`.
 */
template <typename V>
std::map<std::string, std::vector<std::pair<std::string, const V *>>>
byFamily(const std::map<std::string, V> &series)
{
    std::map<std::string,
             std::vector<std::pair<std::string, const V *>>>
        out;
    for (const auto &[key, v] : series) {
        auto [family, block] = splitSeriesKey(key);
        out[family].emplace_back(
            block.empty() ? "" : block.substr(1, block.size() - 2), &v);
    }
    return out;
}

/** Comma-join two label-pair lists, either possibly empty. */
std::string
joinPairs(const std::string &a, const std::string &b)
{
    return a.empty() || b.empty() ? a + b : a + "," + b;
}

} // namespace

std::string
seriesKey(const std::string &family, const MetricLabels &labels)
{
    if (labels.empty())
        return family;
    return family + "{" + renderLabelPairs(labels) + "}";
}

std::pair<std::string, std::string>
splitSeriesKey(const std::string &key)
{
    const std::size_t brace = key.find('{');
    if (brace == std::string::npos)
        return {key, ""};
    return {key.substr(0, brace), key.substr(brace)};
}

std::string
renderPrometheus(const MetricsSnapshot &snap, const MetricLabels &labels)
{
    const std::string shared = renderLabelPairs(labels);
    // "{pairs}" when the sample has labels, "" when not.
    auto braced = [](const std::string &pairs) {
        return pairs.empty() ? pairs : "{" + pairs + "}";
    };

    std::string out;
    out.reserve(4096);
    for (const auto &[family, series] : byFamily(snap.counters)) {
        out += "# TYPE " + family + " counter\n";
        for (const auto &[own, v] : series)
            out += family + braced(joinPairs(shared, own)) + " " +
                   std::to_string(*v) + "\n";
    }
    for (const auto &[family, series] : byFamily(snap.gauges)) {
        out += "# TYPE " + family + " gauge\n";
        for (const auto &[own, gv] : series)
            out += family + braced(joinPairs(shared, own)) + " " +
                   fmtDouble(gv->value) + "\n";
    }
    for (const auto &[family, series] : byFamily(snap.histograms)) {
        out += "# TYPE " + family + " histogram\n";
        for (const auto &[own, h] : series) {
            const std::string pairs = joinPairs(shared, own);
            const std::string plain = braced(pairs);
            // Bucket lines carry `le` after the other labels.
            const std::string bucketPrefix =
                family + "_bucket{" + joinPairs(pairs, "le=\"");
            std::uint64_t cum = 0;
            for (std::size_t k = 0; k < h->bucketIndex.size(); ++k) {
                cum += h->bucketCount[k];
                out += bucketPrefix +
                       fmtDouble(histBucketUpper(h->bucketIndex[k])) +
                       "\"} " + std::to_string(cum) + "\n";
            }
            out += bucketPrefix + "+Inf\"} " + std::to_string(h->count) +
                   "\n";
            out += family + "_sum" + plain + " " + fmtDouble(h->sum) +
                   "\n";
            out += family + "_count" + plain + " " +
                   std::to_string(h->count) + "\n";
        }
    }
    return out;
}

std::string
renderPrometheus(const MetricsSnapshot &snap)
{
    return renderPrometheus(snap, {});
}

std::string
renderMetricsJson(const MetricsSnapshot &snap)
{
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto &[name, v] : snap.counters) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(name) + "\":" + std::to_string(v);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto &[name, gv] : snap.gauges) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(name) + "\":{\"value\":" +
               jsonNumber(gv.value) + ",\"agg\":\"" +
               (gv.agg == GaugeAgg::Max ? "max" : "sum") + "\"}";
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : snap.histograms) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(name) + "\":{";
        out += "\"count\":" + std::to_string(h.count);
        out += ",\"sum\":" + jsonNumber(h.sum);
        out += ",\"min\":" + jsonNumber(h.count ? h.min : 0);
        out += ",\"max\":" + jsonNumber(h.count ? h.max : 0);
        out += ",\"mean\":" + jsonNumber(h.mean());
        out += ",\"p50\":" + jsonNumber(h.quantile(0.5));
        out += ",\"p90\":" + jsonNumber(h.quantile(0.9));
        out += ",\"p99\":" + jsonNumber(h.quantile(0.99));
        out += ",\"buckets\":[";
        for (std::size_t k = 0; k < h.bucketIndex.size(); ++k) {
            if (k)
                out += ",";
            out += "{\"le\":" +
                   jsonNumber(histBucketUpper(h.bucketIndex[k])) +
                   ",\"count\":" + std::to_string(h.bucketCount[k]) +
                   "}";
        }
        out += "]}";
    }
    out += "}}";
    return out;
}

} // namespace sap
