/**
 * @file
 * Health and readiness model for a serving installation: the signal a
 * routing tier or load balancer consumes to decide where traffic goes.
 *
 * A process is *live* when it can still make progress (restarting it
 * would lose work for nothing) and *ready* when it should receive new
 * traffic. The admin plane maps these onto the conventional HTTP
 * pair: GET /healthz (liveness) and GET /readyz (readiness), each
 * answering 200 or 503 from the state computed here.
 *
 * The state machine has three states driven by four inputs:
 *
 *   Ok         all inputs inside their thresholds
 *   Degraded   still correct but past a soft threshold (queue depth,
 *              protocol-error rate, or interval p99 over its budget);
 *              a router should prefer other backends but need not
 *              drain this one
 *   Unhealthy  past a hard threshold (saturated completion/work
 *              queues, protocol-error storm) or not serving at all;
 *              stop sending traffic
 *
 * Transitions are hysteretic: entering Unhealthy requires crossing
 * the hard ("unhealthy") threshold, but *leaving* it requires coming
 * back under the soft ("degraded") threshold, so a backend hovering
 * at the boundary does not flap in and out of a load balancer's
 * rotation. Rates (protocol errors/s) are computed from consecutive
 * evaluate() calls over monotonic time; evaluations closer together
 * than kMinRateWindowSeconds reuse the previous rate rather than
 * amplifying a one-frame burst into a huge instantaneous rate.
 *
 * Thread-safety: HealthModel::evaluate() serializes on an internal
 * mutex; any thread may call it.
 */

#ifndef SAP_OBS_HEALTH_HH
#define SAP_OBS_HEALTH_HH

#include <cstdint>
#include <mutex>
#include <string>

namespace sap {

/** The three health states, in decreasing order of health. */
enum class HealthState : std::uint8_t
{
    Ok = 0,
    Degraded = 1,
    Unhealthy = 2,
};

/** Printable state name ("ok"/"degraded"/"unhealthy"). */
const char *healthStateName(HealthState state);

/** Evaluations closer together than this reuse the previous
 *  protocol-error rate instead of computing one over a tiny window. */
constexpr double kMinRateWindowSeconds = 0.05;

/**
 * Thresholds the model evaluates inputs against. The defaults suit a
 * small loopback installation; a production deployment sizes the
 * queue thresholds to its shard/worker counts.
 */
struct HealthThresholds
{
    /** Queued-but-unserved requests at which the backend counts as
     *  falling behind (soft) and saturated (hard). */
    double degradedQueueDepth = 64;
    double unhealthyQueueDepth = 256;
    /** Wire protocol errors per second: soft and hard bounds. */
    double degradedProtocolErrorsPerSec = 5;
    double unhealthyProtocolErrorsPerSec = 50;
    /** Per-interval p99 latency budget in microseconds; exceeding it
     *  is Degraded (a latency SLO miss is a routing preference, not a
     *  reason to drop a correct backend). 0 disables the check. */
    double p99BudgetMicros = 0;
};

/** One evaluation's inputs, gathered by the owner (see net/server). */
struct HealthInputs
{
    /** Lifecycle: accepting and serving requests right now. */
    bool serving = false;
    /** Requests accepted but not yet picked up by a worker: a
     *  backend's shard work queues. */
    double queueDepth = 0;
    /** Cumulative protocol-error count (rate derives across calls). */
    std::uint64_t protocolErrors = 0;
    /** Interval p99 of the serve latency histogram, µs (0 = no
     *  traffic this interval; the budget check is skipped). */
    double p99Micros = 0;
    /** Monotonic timestamp of this sample, seconds. */
    double nowSeconds = 0;
};

/** What one evaluation concluded. */
struct HealthReport
{
    HealthState state = HealthState::Ok;
    /** healthz: false only when Unhealthy (or never started). */
    bool live = false;
    /** readyz: live AND currently serving. */
    bool ready = false;
    /** Human-readable cause when state != Ok (empty otherwise). */
    std::string reason;
    /** The rate the error thresholds were compared against. */
    double protocolErrorsPerSec = 0;
};

/**
 * The stateful evaluator: owns the thresholds, the previous sample
 * (for rates), and the current state (for hysteresis).
 */
class HealthModel
{
  public:
    explicit HealthModel(const HealthThresholds &thresholds);

    const HealthThresholds &thresholds() const { return thresholds_; }

    /**
     * Fold @p in into the state machine and report the new state.
     * Call at whatever cadence the owner likes (every probe request
     * is fine); rate windows shorter than kMinRateWindowSeconds
     * reuse the previous rate.
     */
    HealthReport evaluate(const HealthInputs &in);

    /** The state as of the last evaluate() (Ok before the first). */
    HealthState state() const;

  private:
    HealthThresholds thresholds_;

    mutable std::mutex mu_;
    HealthState state_ = HealthState::Ok;
    bool have_prev_ = false;
    std::uint64_t prev_errors_ = 0;
    double prev_seconds_ = 0;
    double prev_rate_ = 0;
};

} // namespace sap

#endif // SAP_OBS_HEALTH_HH
