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
              return hasPendingTags(conn);
          };
          hooks.onClosed = [this](std::uint64_t conn) { forgetTags(conn); };
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
        // stop() permanently shuts the completion queue down (its
        // writer may have late completions to drain); a stopped
        // server cannot be revived.
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
    writer_thread_ = std::thread([this] { writerLoop(); });
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
    //    and queue surfaces torn down below. The objects stay alive
    //    (adminPort() remains answerable), only their threads stop.
    admin_.stop();

    // 1. Stop accepting and reading; wait for the IO thread to
    //    acknowledge, so no submitToQueue() races the cluster drain.
    door_.quiesce();

    // 2. Drain the cluster: every accepted request completes and its
    //    completion lands in queue_ (shards drain on destruction).
    //    Under cluster_mutex_, so a METRICS snapshot the writer is
    //    taking right now finishes first.
    {
        std::lock_guard<std::mutex> lock(cluster_mutex_);
        cluster_.reset();
    }

    // 3. The writer converts the remaining completions to output
    //    buffers, then exits on the shutdown signal.
    queue_.shutdown();
    writer_thread_.join();

    // 4. Let the IO thread flush what clients will accept (bounded),
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
    in.queueDepth = static_cast<double>(queue_.size());
    {
        std::lock_guard<std::mutex> lock(cluster_mutex_);
        if (cluster_)
            in.queueDepth += cluster_->queueDepth();
    }
    in.protocolErrors = door_.counts().errorsSent;
    return in;
}

void
NetServer::forgetTags(std::uint64_t conn_id)
{
    std::lock_guard<std::mutex> lock(tags_mutex_);
    for (auto it = tags_.begin(); it != tags_.end();) {
        if (it->second.connId == conn_id)
            it = tags_.erase(it);
        else
            ++it;
    }
}

bool
NetServer::hasPendingTags(std::uint64_t conn_id)
{
    {
        std::lock_guard<std::mutex> lock(tags_mutex_);
        for (const auto &entry : tags_)
            if (entry.second.connId == conn_id)
                return true;
    }
    std::lock_guard<std::mutex> lock(snapshot_requests_mutex_);
    for (const PendingTag &req : snapshot_requests_)
        if (req.connId == conn_id)
            return true;
    return false;
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
        std::uint64_t server_tag;
        {
            std::lock_guard<std::mutex> lock(tags_mutex_);
            server_tag = next_tag_++;
            tags_[server_tag] = {conn_id, tag};
        }
        cluster_->submitToQueue(std::move(req), &queue_, server_tag);
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Metrics):
    case static_cast<std::uint16_t>(FrameType::Traces): {
        // Empty payload = request (a snapshot in either direction is
        // harmless to serve again, so no payload check). The merged
        // snapshot + encode work is milliseconds on a loaded
        // installation, so it runs on the writer thread — the IO
        // thread only hands the request over via the tag-0 marker.
        // TRACES is the scatter leg of the gateway's stitched
        // /tracez.
        {
            std::lock_guard<std::mutex> lock(snapshot_requests_mutex_);
            snapshot_requests_.push_back(
                {conn_id, tag, static_cast<FrameType>(frame.header.type)});
        }
        queue_.push({0, {}});
        return;
    }
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
NetServer::writerLoop()
{
    Completion c;
    while (queue_.next(&c)) {
        if (c.tag == 0) {
            // METRICS/TRACES marker from the IO thread: snapshot,
            // encode, and deliver here so the event loop never stalls
            // on it. The request is peeked, not popped, until the
            // frame is buffered — its deque entry is what keeps a
            // half-closed requester open (hasPendingTags).
            PendingTag snap_req;
            {
                std::lock_guard<std::mutex> lock(
                    snapshot_requests_mutex_);
                if (snapshot_requests_.empty())
                    continue;
                snap_req = snapshot_requests_.front();
            }
            if (snap_req.kind == FrameType::Metrics) {
                // metricsSnapshot() takes cluster_mutex_ itself and
                // degrades to the wire-level half during shutdown —
                // still a well-formed frame, so always deliver.
                door_.send(snap_req.connId,
                           buildMetricsFrame(snap_req.clientTag,
                                             metricsSnapshot()));
            } else {
                door_.send(
                    snap_req.connId,
                    buildTracesFrame(snap_req.clientTag,
                                     collector_.snapshot(),
                                     collector_.totalCommitted()));
            }
            std::lock_guard<std::mutex> lock(snapshot_requests_mutex_);
            snapshot_requests_.pop_front();
            continue;
        }
        PendingTag pending;
        {
            std::lock_guard<std::mutex> lock(tags_mutex_);
            auto it = tags_.find(c.tag);
            if (it == tags_.end())
                continue; // connection died; drop the response
            pending = it->second;
            // NOT erased yet: the tag entry is what keeps the IO
            // thread from closing a half-closed (EOF'd) connection
            // that is still owed this response. Erase only after
            // the frame is in the connection's output buffer.
        }
        // WireResponse::of moves the response, so detach the trace
        // (and its outcome) first.
        std::shared_ptr<RequestTrace> trace = c.response.trace;
        if (trace) {
            trace->ok = c.response.ok;
            trace->stamp(TraceStage::WriterPop);
        }
        // Counted as the frame is queued, before its bytes can reach
        // the client, so a client holding every response never
        // scrapes a count that lags.
        door_.send(pending.connId,
                   buildResponseFrame(
                       pending.clientTag,
                       WireResponse::of(std::move(c.response))),
                   responses_sent_);
        {
            std::lock_guard<std::mutex> lock(tags_mutex_);
            tags_.erase(c.tag);
        }
        // Flush = response bytes handed to the socket layer; the
        // commit decides sampled-or-slow and records stage spans.
        traceStamp(trace, TraceStage::Flush);
        collector_.finish(trace);
    }
}

} // namespace sap
