/**
 * @file
 * Shared by the serving examples: print the per-(engine, kind, mode)
 * breakdown that a metrics snapshot carries as labelled series (see
 * Shard::metricsSnapshot()), whether the snapshot came from a shard,
 * a cluster, or a METRICS frame.
 */

#ifndef SAP_EXAMPLES_ENGINE_BREAKDOWN_HH
#define SAP_EXAMPLES_ENGINE_BREAKDOWN_HH

#include <cstdio>

#include "obs/metrics.hh"

namespace sap {

/** One row per serve_engine_requests_total series in @p snap. */
inline void
printEngineBreakdown(const MetricsSnapshot &snap)
{
    std::printf("  %-54s %6s %6s %9s %9s %10s\n", "engine series",
                "reqs", "hits", "p50(us)", "p99(us)", "cycles");
    for (const auto &[key, requests] : snap.counters) {
        const auto [family, labels] = splitSeriesKey(key);
        if (family != "serve_engine_requests_total")
            continue;
        // A shard registers a series' four families together.
        const HistogramSnapshot &lat =
            snap.histograms.at("serve_engine_latency_micros" + labels);
        std::printf(
            "  %-54s %6llu %6llu %9.1f %9.1f %10llu\n", labels.c_str(),
            (unsigned long long)requests,
            (unsigned long long)snap.counters.at(
                "serve_engine_cache_hits_total" + labels),
            lat.quantile(0.5), lat.quantile(0.99),
            (unsigned long long)snap.counters.at(
                "serve_engine_sim_cycles_total" + labels));
    }
}

} // namespace sap

#endif // SAP_EXAMPLES_ENGINE_BREAKDOWN_HH
