#include "net/server.hh"

#include <utility>

#include "base/logging.hh"
#include "obs/trace_export.hh"

namespace sap {

NetServer::NetServer(const Options &opts)
    : opts_(opts), collector_(opts.trace, &net_metrics_),
      admin_([this] { return metricsSnapshot(); },
             [this] { return healthInputs(); },
             "serve_latency_micros:p99"),
      door_("net server", opts.maxQueuedOutputBytes, [this] {
          FrontDoor::Hooks hooks;
          hooks.onFrame = [this](std::uint64_t conn, Frame &&frame) {
              handleFrame(conn, std::move(frame));
          };
          hooks.owesWork = [this](std::uint64_t conn) {
              return owesResponses(conn);
          };
          return hooks;
      }())
{
    responses_sent_ = &net_metrics_.counter("net_responses_sent_total");
}

NetServer::~NetServer()
{
    stop();
}

bool
NetServer::start()
{
    std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
    if (running_.load()) {
        error_ = "start() called twice";
        return false;
    }
    if (stopped_) {
        // The front door is one-shot (its IO thread's exit and
        // quiesce flags never reset); a stopped server cannot be
        // revived.
        error_ = "NetServer cannot be restarted after stop(); "
                 "construct a new instance";
        return false;
    }
    if (!door_.open(opts_.port, &error_))
        return false;

    // Admin plane comes up before the data-plane threads: if its
    // port cannot bind, start() fails with nothing left to unwind
    // but sockets. Its handlers tolerate the not-yet-serving state
    // (healthz answers "not serving" until the door starts below).
    AdminPlane::Tracez tracez;
    tracez.fetch = [this](std::uint64_t *total) {
        *total = collector_.totalCommitted();
        return collector_.snapshot();
    };
    tracez.render = [](std::vector<RequestTrace> traces,
                       std::uint64_t total) {
        return toTracezJson(traces, total);
    };
    tracez.chromeFile = "sap_trace.json";
    if (!admin_.start(opts_, "sap admin", std::move(tracez), &error_)) {
        door_.stop(false);
        return false;
    }

    cluster_ = std::make_unique<Cluster>(opts_.cluster);
    running_.store(true);
    door_.start();
    SAP_LOG_INFO("net server listening on 127.0.0.1:", port(), " (",
                 opts_.cluster.shards, " shards, tracing ",
                 collector_.enabled() ? "on" : "off", ")");
    return true;
}

void
NetServer::stop()
{
    std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
    bool expected = true;
    if (!running_.compare_exchange_strong(expected, false))
        return;
    stopped_ = true;

    // 0. Admin plane first: its threads call back into the cluster
    //    torn down below. The objects stay alive (adminPort()
    //    remains answerable), only their threads stop.
    admin_.stop();

    // 1. Stop accepting and reading; wait for the IO thread to
    //    acknowledge, so no submitAsync() races the cluster drain.
    door_.quiesce();

    // 2. Drain the cluster: every accepted request completes, and
    //    its shard worker queues the RESPONSE on the door (shards
    //    drain on destruction). Under cluster_mutex_, so a METRICS
    //    snapshot the admin plane was taking finishes first.
    {
        std::lock_guard<std::mutex> lock(cluster_mutex_);
        cluster_.reset();
    }

    // 3. Let the IO thread flush what clients will accept (bounded),
    //    then close everything.
    door_.stop(/*flush=*/true);
    SAP_LOG_INFO("net server on port ", port(), " stopped");
}

MetricsSnapshot
NetServer::metricsSnapshot() const
{
    MetricsSnapshot snap = net_metrics_.snapshot();
    const FrontDoor::Counts door = door_.counts();
    snap.counters["net_bytes_received_total"] = door.bytesIn;
    snap.counters["net_bytes_sent_total"] = door.bytesOut;
    snap.counters["net_frames_received_total"] = door.framesIn;
    snap.counters["net_protocol_errors_total"] = door.errorsSent;
    snap.counters["net_connections_accepted_total"] = door.accepted;
    snap.gauges["net_connections_live"] = {
        static_cast<double>(door.live), GaugeAgg::Sum};
    std::lock_guard<std::mutex> lock(cluster_mutex_);
    if (cluster_)
        snap.merge(cluster_->metricsSnapshot());
    return snap;
}

HealthInputs
NetServer::healthInputs() const
{
    HealthInputs in;
    in.serving = door_.serving();
    {
        std::lock_guard<std::mutex> lock(cluster_mutex_);
        if (cluster_)
            in.queueDepth = cluster_->queueDepth();
    }
    in.protocolErrors = door_.counts().errorsSent;
    return in;
}

bool
NetServer::owesResponses(std::uint64_t conn_id)
{
    std::lock_guard<std::mutex> lock(owed_mutex_);
    return owed_.count(conn_id) != 0;
}

void
NetServer::handleFrame(std::uint64_t conn_id, Frame &&frame)
{
    const std::uint64_t tag = frame.header.tag;
    switch (frame.header.type) {
    case static_cast<std::uint16_t>(FrameType::Submit):
    case static_cast<std::uint16_t>(FrameType::Forward): {
        // FORWARD is the gateway hop: a SUBMIT whose routing digest
        // was already computed one tier up. Same life cycle as
        // SUBMIT; the digest rides on the request to the shard plan
        // cache, as a hint (ServeRequest::digest).
        const bool forward =
            frame.header.type ==
            static_cast<std::uint16_t>(FrameType::Forward);
        Digest digest = 0;
        ServeRequest req;
        std::string err;
        if (!(forward ? decodeForward(frame.payload, &digest, &req, &err)
                      : decodeSubmit(frame.payload, &req, &err))) {
            door_.sendError(conn_id, tag, err);
            return;
        }
        if (forward)
            req.digest = digest;
        // Tracing begins at the network boundary: the Decode stamp
        // anchors every later span to the IO thread's hand-off time.
        // A request carrying a propagated context adopts the edge's
        // sampling decision instead of rolling a local one.
        req.trace = req.traceContext.valid()
                        ? collector_.adopt(req.traceContext)
                        : collector_.begin();
        traceStamp(req.trace, TraceStage::Decode);
        {
            std::lock_guard<std::mutex> lock(owed_mutex_);
            ++owed_[conn_id];
        }
        cluster_->submitAsync(std::move(req),
                              [this, conn_id, tag](ServeResponse resp) {
                                  respond(conn_id, tag, std::move(resp));
                              });
        return;
    }
    // Empty payload = request (a snapshot in either direction is
    // harmless to serve again, so no payload check). Answered here on
    // the IO thread, as the door answers PING: these frames are the
    // tools' path, and one snapshot and encode takes tens of µs for
    // METRICS and about 2 ms for TRACES with every worker's ring
    // full. TRACES is the scatter leg of the gateway's stitched
    // /tracez.
    case static_cast<std::uint16_t>(FrameType::Metrics):
        // metricsSnapshot() degrades to the wire-level half once the
        // cluster is gone — still a well-formed frame.
        door_.send(conn_id, buildMetricsFrame(tag, metricsSnapshot()));
        return;
    case static_cast<std::uint16_t>(FrameType::Traces):
        door_.send(conn_id,
                   buildTracesFrame(tag, collector_.snapshot(),
                                    collector_.totalCommitted()));
        return;
    case static_cast<std::uint16_t>(FrameType::Response):
    case static_cast<std::uint16_t>(FrameType::Error):
        door_.sendError(conn_id, tag,
                        "unexpected " + frameTypeName(frame.header.type) +
                            " frame from a client");
        return;
    default:
        door_.sendError(conn_id, tag,
                        "unknown frame " + frameTypeName(frame.header.type));
        return;
    }
}

void
NetServer::respond(std::uint64_t conn_id, std::uint64_t client_tag,
                   ServeResponse resp)
{
    // WireResponse::of moves the response, so detach the trace (and
    // its outcome) first.
    std::shared_ptr<RequestTrace> trace = std::move(resp.trace);
    if (trace)
        trace->ok = resp.ok;
    // Counted as the frame is queued, before its bytes can reach the
    // client, so a client holding every response never scrapes a
    // count that lags. A connection that died meanwhile drops it.
    door_.send(conn_id,
               buildResponseFrame(client_tag,
                                  WireResponse::of(std::move(resp))),
               responses_sent_);
    // Settled only now that the frame is queued: until then the
    // count keeps a half-closed connection open. The door closes it
    // on a later wakeup once this reaches zero and the frame has
    // flushed.
    {
        std::lock_guard<std::mutex> lock(owed_mutex_);
        auto it = owed_.find(conn_id);
        if (--it->second == 0)
            owed_.erase(it);
    }
    // Flush = RESPONSE queued on the connection; the commit decides
    // sampled-or-slow and records stage spans into this worker's
    // ring.
    traceStamp(trace, TraceStage::Flush);
    collector_.finish(trace);
}

} // namespace sap
