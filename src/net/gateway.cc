#include "net/gateway.hh"

#include <cerrno>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/logging.hh"
#include "base/socket_util.hh"
#include "engine/engine.hh"
#include "net/client.hh"
#include "obs/trace_export.hh"

namespace sap {

namespace {

/** " trace=<32hex>" when @p ctx is valid, "" otherwise — the log ↔
 *  trace correlation suffix for failover/resubmit lines. */
std::string
traceSuffix(const TraceContext &ctx)
{
    return ctx.valid() ? " trace=" + traceIdHex(ctx) : std::string();
}

} // namespace

//----------------------------------------------------------------------
// Lifecycle.
//----------------------------------------------------------------------

Gateway::Gateway(const Options &opts)
    : opts_(opts), collector_(opts.trace, &metrics_),
      admin_([this] { return metricsSnapshot(); },
             [this] { return healthInputs(); },
             "gateway_route_micros:p99"),
      door_("gateway", opts.maxQueuedOutputBytes, [this, &opts] {
          FrontDoor::Hooks hooks;
          hooks.onFrame = [this](std::uint64_t conn, Frame &&frame) {
              handleClientFrame(conn, std::move(frame));
          };
          hooks.owesWork = [this](std::uint64_t conn) {
              return clientOwedWork(conn);
          };
          hooks.ownerFds = opts.backends.size();
          hooks.onOwnerReady = [this](std::size_t idx,
                                      const EventLoop::Ready &ev) {
              handleBackendReady(idx, ev);
          };
          hooks.onTick = [this] { tick(); };
          return hooks;
      }())
{
    SAP_ASSERT(!opts_.backends.empty(),
               "gateway needs at least one backend");
    inst_.requests = &metrics_.counter("gateway_requests_total");
    inst_.relayed =
        &metrics_.counter("gateway_responses_relayed_total");
    inst_.failovers = &metrics_.counter("gateway_failovers_total");
    inst_.resubmits = &metrics_.counter("gateway_resubmits_total");
    inst_.backendsRoutable =
        &metrics_.gauge("gateway_backends_routable", GaugeAgg::Sum);
    inst_.routeMicros = &metrics_.histogram("gateway_route_micros");
    backends_.reserve(opts_.backends.size());
    for (std::size_t i = 0; i < opts_.backends.size(); ++i) {
        backends_.push_back(std::make_unique<Backend>(opts_.backends[i]));
        Backend &b = *backends_.back();
        b.inflightGauge = &metrics_.gauge(
            seriesKey("gateway_backend_inflight",
                      {{"backend", std::to_string(i)}}),
            GaugeAgg::Sum);
        b.conn.onConnected = [this, i] { sendLivenessPing(i); };
        b.conn.onFrame = [this, i](Frame &&frame) {
            handleBackendFrame(i, std::move(frame));
        };
    }
}

Gateway::~Gateway()
{
    stop();
}

bool
Gateway::start()
{
    std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
    if (running_.load()) {
        error_ = "start() called twice";
        return false;
    }
    if (stopped_) {
        error_ = "Gateway cannot be restarted after stop(); "
                 "construct a new instance";
        return false;
    }

    if (!door_.open(opts_.port, &error_))
        return false;

    // Admin plane before the IO thread (as NetServer): if its port
    // cannot bind, start() fails with only sockets to unwind.
    AdminPlane::Tracez tracez;
    tracez.fetch = [this](std::uint64_t *total) {
        std::vector<RequestTrace> traces;
        if (!gatherTracesForAdmin(&traces, total)) {
            // Degraded: the gateway-only view still serves.
            traces = collector_.snapshot();
            *total = collector_.totalCommitted();
        }
        return traces;
    };
    tracez.render = [](std::vector<RequestTrace> traces,
                       std::uint64_t total) {
        return toStitchedTracezJson(stitchTraces(std::move(traces)),
                                    total);
    };
    // The Perfetto download is the multi-process view: pid 2 =
    // gateway lane, pid 1 = backend lanes, joined by trace id.
    tracez.chromeFile = "sap_gateway_trace.json";
    if (!admin_.start(opts_, "sap gateway admin", std::move(tracez),
                      &error_)) {
        door_.stop(false);
        return false;
    }

    // Backends start connecting before the IO thread exists; from
    // then on only it touches them.
    for (std::size_t i = 0; i < backends_.size(); ++i)
        tryConnect(i);
    last_tick_ = last_ping_ = std::chrono::steady_clock::now();
    exiting_.store(false);
    running_.store(true);
    door_.start();

    bool any_admin = false;
    for (const auto &b : backends_)
        any_admin |= b->addr.adminPort != 0;
    if (any_admin && opts_.healthzIntervalMs > 0)
        prober_thread_ = std::thread([this] { proberLoop(); });

    SAP_LOG_INFO("gateway listening on 127.0.0.1:", port(), " over ",
                 backends_.size(), " backends");
    return true;
}

void
Gateway::stop()
{
    std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
    if (!running_.load())
        return;
    // Admin plane first: its /tracez handler round-trips through the
    // still-live data plane; stopping it before the IO thread keeps
    // that path well-defined.
    admin_.stop();
    exiting_.store(true);
    // Drop every socket. In-flight requests die with their
    // connections (stop() is not a graceful drain; see gateway.hh).
    door_.stop(/*flush=*/false);
    if (prober_thread_.joinable())
        prober_thread_.join();
    // The IO thread is gone; its backend state is ours now.
    for (auto &b : backends_) {
        b->conn.close();
        b->routable = false;
    }
    ring_.reset();
    ring_map_.clear();
    routable_count_.store(0);
    running_.store(false);
    stopped_ = true;
}

MetricsSnapshot
Gateway::metricsSnapshot() const
{
    MetricsSnapshot snap = metrics_.snapshot();
    const FrontDoor::Counts door = door_.counts();
    snap.counters["gateway_errors_total"] = door.errorsSent;
    snap.gauges["gateway_clients_live"] = {
        static_cast<double>(door.live), GaugeAgg::Sum};
    return snap;
}

//----------------------------------------------------------------------
// Backend liveness and the ring.
//----------------------------------------------------------------------

void
Gateway::rebuildRing()
{
    ring_map_.clear();
    for (std::size_t i = 0; i < backends_.size(); ++i)
        if (backends_[i]->routable)
            ring_map_.push_back(i);
    ring_ = ring_map_.empty()
                ? nullptr
                : std::make_unique<ConsistentHashRouter>(ring_map_.size());
    routable_count_.store(ring_map_.size());
    inst_.backendsRoutable->set(static_cast<double>(ring_map_.size()));
}

void
Gateway::tryConnect(std::size_t idx)
{
    Backend &b = *backends_[idx];
    if (!b.conn.connectStart(b.addr.host, b.addr.port)) {
        b.reconnectWaitMs = opts_.reconnectIntervalMs;
        return;
    }
    updateBackendInterest(idx);
    if (b.conn.connected())
        sendLivenessPing(idx); // loopback can connect synchronously
}

void
Gateway::sendLivenessPing(std::size_t idx)
{
    Backend &b = *backends_[idx];
    b.pingTag = next_tag_++;
    b.pingOutstanding = true;
    b.conn.send(buildPingFrame(b.pingTag));
    updateBackendInterest(idx);
}

void
Gateway::updateBackendInterest(std::size_t idx)
{
    Backend &b = *backends_[idx];
    if (b.conn.fd() >= 0)
        door_.watch(b.conn.fd(), b.conn.desiredInterest(), idx);
}

void
Gateway::backendUp(std::size_t idx)
{
    Backend &b = *backends_[idx];
    if (b.routable)
        return;
    b.routable = true;
    rebuildRing();
    SAP_LOG_INFO("gateway: backend ", idx, " (", b.addr.host, ":",
                 b.addr.port, ") routable, ring size ",
                 ring_map_.size());
}

void
Gateway::backendDown(std::size_t idx, const std::string &reason)
{
    Backend &b = *backends_[idx];
    const bool was_routable = b.routable;
    if (b.conn.fd() >= 0) {
        door_.unwatch(b.conn.fd());
        b.conn.close();
    } else if (b.conn.state() == AsyncClient::State::Closed) {
        b.conn.close(); // reset Closed → Idle for the reconnect path
    }
    b.routable = false;
    b.pingOutstanding = false;
    b.missedPings = 0;
    b.reconnectWaitMs = opts_.reconnectIntervalMs;
    b.inflight = 0;
    b.inflightGauge->set(0);

    if (was_routable) {
        SAP_LOG_WARN("gateway: backend ", idx, " down (", reason,
                     "); failing over");
        inst_.failovers->add();
        rebuildRing();
    }

    // Release gather legs owed by this backend: the merge simply
    // proceeds without its part.
    for (auto it = gather_tags_.begin(); it != gather_tags_.end();) {
        if (it->second.backendIdx != idx) {
            ++it;
            continue;
        }
        std::uint64_t gather_id = it->second.gatherId;
        it = gather_tags_.erase(it);
        auto git = gathers_.find(gather_id);
        if (git != gathers_.end() && git->second.awaiting > 0) {
            --git->second.awaiting;
            finishGatherIfDone(gather_id);
        }
    }

    // Migrate the in-flight SUBMITs that were awaiting this backend:
    // serving is pure compute, so resubmission re-executes safely,
    // and the client sees at most one reply because the in-flight
    // entry is erased when the first response relays. A request out
    // of resubmit budget (or with nowhere to go) gets a clean ERROR
    // — clients never hang on a dead backend.
    std::vector<std::uint64_t> to_move;
    for (const auto &entry : inflight_)
        if (entry.second.backendIdx == idx)
            to_move.push_back(entry.first);
    for (std::uint64_t gwtag : to_move) {
        Inflight &fl = inflight_[gwtag];
        if (fl.resubmits < opts_.maxResubmits && ring_ != nullptr) {
            ++fl.resubmits;
            // The attempt counter rides the propagated context so
            // both tiers' traces record which delivery this was.
            fl.ctx.attempt =
                static_cast<std::uint8_t>(fl.resubmits);
            if (fl.trace)
                fl.trace->addEvent("resubmit attempt " +
                                   std::to_string(fl.resubmits));
            fl.backendIdx = ring_map_[ring_->shardFor(fl.digest)];
            sendForward(gwtag, fl);
            SAP_LOG_WARN("gateway: resubmitting request to backend ",
                         fl.backendIdx, " attempt ", fl.resubmits,
                         traceSuffix(fl.ctx));
            inst_.resubmits->add();
        } else {
            Inflight fl_copy = std::move(fl);
            inflight_.erase(gwtag);
            SAP_LOG_WARN("gateway: resubmit budget spent after ",
                         fl_copy.resubmits, " tries",
                         traceSuffix(fl_copy.ctx));
            if (fl_copy.trace) {
                fl_copy.trace->addEvent("resubmit budget spent");
                fl_copy.trace->ok = false;
                collector_.finish(fl_copy.trace);
            }
            door_.sendError(fl_copy.clientConnId, fl_copy.clientTag,
                            "backend failed (" + reason +
                                ") and the resubmit budget is spent");
        }
    }
}

void
Gateway::sendPings()
{
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        Backend &b = *backends_[i];
        if (b.routable && !b.adminHealthy.load()) {
            backendDown(i, "healthz probe failed");
            continue;
        }
        if (!b.conn.connected())
            continue;
        if (b.pingOutstanding) {
            if (++b.missedPings >= opts_.pingMissLimit)
                backendDown(i, "ping timeout");
        } else {
            sendLivenessPing(i);
        }
    }
}

void
Gateway::tryReconnects(int elapsed_ms)
{
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        Backend &b = *backends_[i];
        if (b.conn.fd() >= 0)
            continue; // connected or connecting
        b.reconnectWaitMs -= elapsed_ms;
        if (b.reconnectWaitMs > 0)
            continue;
        b.reconnectWaitMs = opts_.reconnectIntervalMs;
        if (b.conn.state() == AsyncClient::State::Closed)
            b.conn.close(); // reset to Idle
        tryConnect(i);
    }
}

bool
Gateway::clientOwedWork(std::uint64_t conn_id) const
{
    for (const auto &entry : inflight_)
        if (entry.second.clientConnId == conn_id)
            return true;
    for (const auto &entry : gathers_)
        if (entry.second.clientConnId == conn_id)
            return true;
    return false;
}

//----------------------------------------------------------------------
// Routing.
//----------------------------------------------------------------------

void
Gateway::routeSubmit(std::uint64_t conn_id, std::uint64_t client_tag,
                     Digest digest,
                     std::vector<std::uint8_t> submit_payload,
                     const TraceContext &ctx,
                     std::shared_ptr<RequestTrace> trace)
{
    inst_.requests->add();
    if (ring_ == nullptr) {
        door_.sendError(conn_id, client_tag, "no routable backend");
        if (trace) {
            trace->ok = false;
            collector_.finish(trace);
        }
        return;
    }
    traceStamp(trace, TraceStage::Route);
    const std::uint64_t gwtag = next_tag_++;
    Inflight fl;
    fl.clientConnId = conn_id;
    fl.clientTag = client_tag;
    fl.backendIdx = ring_map_[ring_->shardFor(digest)];
    fl.digest = digest;
    fl.submitPayload = std::make_shared<std::vector<std::uint8_t>>(
        std::move(submit_payload));
    fl.start = std::chrono::steady_clock::now();
    fl.ctx = ctx;
    sendForward(gwtag, fl);
    traceStamp(trace, TraceStage::Dequeue); // "gw_forward"
    fl.trace = std::move(trace);
    inflight_.emplace(gwtag, std::move(fl));
}

void
Gateway::sendForward(std::uint64_t gwtag, const Inflight &fl)
{
    Backend &b = *backends_[fl.backendIdx];
    b.conn.send(buildForwardHead(gwtag, fl.digest,
                                 fl.submitPayload->size(),
                                 fl.ctx.valid() ? &fl.ctx : nullptr));
    b.conn.send(fl.submitPayload);
    ++b.inflight;
    b.inflightGauge->set(static_cast<double>(b.inflight));
    updateBackendInterest(fl.backendIdx);
}

void
Gateway::startGather(std::uint64_t conn_id, std::uint64_t client_tag,
                     FrameType kind)
{
    const std::uint64_t gather_id = next_gather_id_++;
    Gather g;
    g.clientConnId = conn_id;
    g.clientTag = client_tag;
    g.kind = kind;
    if (kind == FrameType::Metrics) {
        g.metricsMerged = metricsSnapshot();
    } else {
        // Seed with the gateway's own rings; backend parts append.
        g.tracesMerged = collector_.snapshot();
        g.tracesTotal = collector_.totalCommitted();
    }
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        Backend &b = *backends_[i];
        if (!b.routable)
            continue;
        const std::uint64_t gwtag = next_tag_++;
        gather_tags_[gwtag] = {gather_id, i};
        b.conn.send(kind == FrameType::Metrics
                        ? buildMetricsRequestFrame(gwtag)
                        : buildTracesRequestFrame(gwtag));
        updateBackendInterest(i);
        ++g.awaiting;
    }
    gathers_.emplace(gather_id, std::move(g));
    finishGatherIfDone(gather_id); // zero routable backends
}

void
Gateway::finishGatherIfDone(std::uint64_t gather_id)
{
    auto it = gathers_.find(gather_id);
    if (it == gathers_.end() || it->second.awaiting > 0)
        return;
    Gather g = std::move(it->second);
    gathers_.erase(it);
    door_.send(g.clientConnId,
               g.kind == FrameType::Metrics
                   ? buildMetricsFrame(g.clientTag, g.metricsMerged)
                   : buildTracesFrame(g.clientTag, g.tracesMerged,
                                      g.tracesTotal));
}

std::shared_ptr<RequestTrace>
Gateway::admitTrace(TraceContext *ctx, const SubmitView &view)
{
    // The edge owns the head-sampling decision: a request that
    // arrives without a context gets one minted here (sampled 1-in-N
    // by the gateway's counter); one that arrives with a context
    // keeps it — sampling is decided exactly once per request.
    if (!ctx->valid() && collector_.enabled())
        *ctx = makeTraceContext(collector_.headSample());
    std::shared_ptr<RequestTrace> trace = collector_.adopt(*ctx);
    if (trace) {
        trace->tier = TraceTier::Gateway;
        trace->label = view.engine;
        trace->kind = problemKindName(view.kind);
        trace->stamp(TraceStage::Decode);
    }
    return trace;
}

void
Gateway::handleClientFrame(std::uint64_t conn_id, Frame &&frame)
{
    const std::uint64_t tag = frame.header.tag;
    switch (frame.header.type) {
    case static_cast<std::uint16_t>(FrameType::Submit): {
        // Validate with full wire strictness (bad payloads must not
        // reach a backend) but decode nothing: the scan leaves the
        // operands as byte spans, the digest is taken over them, and
        // the payload bytes relay as-is inside a FORWARD.
        SubmitView view;
        std::string err;
        if (!scanSubmit(frame.payload, &view, &err)) {
            door_.sendError(conn_id, tag, err);
            return;
        }
        TraceContext ctx = view.traceContext;
        std::shared_ptr<RequestTrace> trace = admitTrace(&ctx, view);
        const Digest digest = planDigest(view);
        std::vector<std::uint8_t> payload = std::move(frame.payload);
        frame.payload = std::exchange(spare_payload_, {});
        routeSubmit(conn_id, tag, digest, std::move(payload), ctx,
                    std::move(trace));
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Forward): {
        // A gateway one tier up already computed the digest: validate
        // the embedded SUBMIT, strip the envelope, and route — rings
        // of rings compose.
        Digest digest = 0;
        SubmitView view;
        std::string err;
        if (!scanForward(frame.payload, &digest, &view, &err)) {
            door_.sendError(conn_id, tag, err);
            return;
        }
        TraceContext ctx = view.traceContext;
        std::shared_ptr<RequestTrace> trace = admitTrace(&ctx, view);
        std::vector<std::uint8_t> submit_payload(
            view.payload.data, view.payload.data + view.payload.size);
        routeSubmit(conn_id, tag, digest, std::move(submit_payload),
                    ctx, std::move(trace));
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Metrics):
    case static_cast<std::uint16_t>(FrameType::Traces):
        startGather(conn_id, tag,
                    static_cast<FrameType>(frame.header.type));
        return;
    default:
        door_.sendError(conn_id, tag,
                        "unexpected " +
                            frameTypeName(frame.header.type) +
                            " frame at the gateway");
        return;
    }
}

//----------------------------------------------------------------------
// Backend frames.
//----------------------------------------------------------------------

void
Gateway::handleBackendFrame(std::size_t idx, Frame &&frame)
{
    Backend &b = *backends_[idx];
    const std::uint64_t tag = frame.header.tag;

    switch (frame.header.type) {
    case static_cast<std::uint16_t>(FrameType::Response):
    case static_cast<std::uint16_t>(FrameType::Error): {
        auto it = inflight_.find(tag);
        if (it == inflight_.end())
            return; // late duplicate after a failover: dropped
        Inflight fl = std::move(it->second);
        inflight_.erase(it);
        if (b.inflight > 0)
            --b.inflight;
        b.inflightGauge->set(static_cast<double>(b.inflight));
        if (fl.trace) {
            fl.trace->stamp(TraceStage::WriterPop); // "gw_relay_pop"
            fl.trace->ok =
                frame.header.type ==
                static_cast<std::uint16_t>(FrameType::Response);
        }
        // Relay the payload bytes verbatim under the client's tag.
        door_.sendFrame(fl.clientConnId,
                        static_cast<FrameType>(frame.header.type),
                        fl.clientTag, std::move(frame.payload));
        if (fl.trace) {
            fl.trace->stamp(TraceStage::Flush); // "gw_flush"
            collector_.finish(fl.trace);
        }
        inst_.routeMicros->record(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - fl.start)
                .count());
        inst_.relayed->add();
        // The backend answered, so it has every payload byte: no
        // output queue should still share the buffer.
        if (fl.submitPayload.use_count() == 1 &&
            fl.submitPayload->capacity() > spare_payload_.capacity())
            spare_payload_ = std::move(*fl.submitPayload);
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Ping): {
        if (b.pingOutstanding && tag == b.pingTag) {
            b.pingOutstanding = false;
            b.missedPings = 0;
            if (!b.routable && b.adminHealthy.load())
                backendUp(idx);
        }
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Metrics):
    case static_cast<std::uint16_t>(FrameType::Traces): {
        auto it = gather_tags_.find(tag);
        if (it == gather_tags_.end())
            return;
        std::uint64_t gather_id = it->second.gatherId;
        gather_tags_.erase(it);
        auto git = gathers_.find(gather_id);
        if (git == gathers_.end())
            return;
        Gather &g = git->second;
        std::string err;
        if (g.kind == FrameType::Metrics) {
            MetricsSnapshot part;
            if (decodeMetrics(frame.payload, &part, &err))
                g.metricsMerged.merge(part);
        } else {
            std::vector<RequestTrace> part;
            std::uint64_t part_total = 0;
            if (decodeTraces(frame.payload, &part, &part_total,
                             &err)) {
                g.tracesTotal += part_total;
                for (RequestTrace &t : part)
                    g.tracesMerged.push_back(std::move(t));
            }
        }
        if (g.awaiting > 0)
            --g.awaiting;
        finishGatherIfDone(gather_id);
        return;
    }
    default:
        // A backend speaking garbage frame types is suspect but not
        // fatal; liveness pings decide its fate.
        SAP_LOG_WARN("gateway: backend ", idx, " sent unexpected ",
                     frameTypeName(frame.header.type), " frame");
        return;
    }
}

void
Gateway::handleBackendReady(std::size_t idx, const EventLoop::Ready &ev)
{
    Backend &b = *backends_[idx];
    const int fd = b.conn.fd();
    if (fd < 0)
        return; // went down earlier in this batch
    b.conn.handleReady(ev);
    if (b.conn.state() == AsyncClient::State::Closed) {
        door_.unwatch(fd);
        backendDown(idx, b.conn.lastError());
    } else {
        updateBackendInterest(idx);
    }
}

void
Gateway::tick()
{
    const auto now = std::chrono::steady_clock::now();
    const int elapsed_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                              last_tick_)
            .count());
    last_tick_ = now;
    if (now - last_ping_ >= std::chrono::milliseconds(opts_.pingIntervalMs)) {
        last_ping_ = now;
        sendPings();
    }
    tryReconnects(elapsed_ms);
}

//----------------------------------------------------------------------
// The admin plane.
//----------------------------------------------------------------------

HealthInputs
Gateway::healthInputs() const
{
    HealthInputs in;
    // "Serving" for a gateway means the front door is open AND at
    // least one backend can take traffic.
    in.serving = running_.load() && routable_count_.load() > 0;
    in.protocolErrors = door_.counts().errorsSent;
    return in;
}

bool
Gateway::gatherTracesForAdmin(std::vector<RequestTrace> *out,
                              std::uint64_t *total) const
{
    // Round-trip a TRACES frame through our own front door: the IO
    // thread answers it with the gateway's rings plus a scatter-
    // gather over every routable backend — exactly what a wire
    // client would see. The admin worker thread blocks here; the IO
    // thread does the serving, so there is no self-deadlock.
    NetClient client;
    if (!client.connect("127.0.0.1", port()))
        return false;
    return client.traces(out, total);
}

//----------------------------------------------------------------------
// The /healthz prober.
//----------------------------------------------------------------------

bool
probeHealthz(const std::string &host, std::uint16_t admin_port,
             int timeout_ms)
{
    bool pending = false;
    std::string err;
    const int fd = connectTcp(host, admin_port, &pending, &err);
    if (fd < 0)
        return false;
    struct pollfd pfd = {fd, POLLOUT, 0};
    if (::poll(&pfd, 1, timeout_ms) != 1) {
        ::close(fd);
        return false;
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
        soerr != 0) {
        ::close(fd);
        return false;
    }

    const std::string request = "GET /healthz HTTP/1.1\r\nHost: " +
                                host + "\r\nConnection: close\r\n\r\n";
    std::size_t off = 0;
    while (off < request.size()) {
        ssize_t n = ::send(fd, request.data() + off,
                           request.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                      errno == EWOULDBLOCK)) {
            pfd.events = POLLOUT;
            if (::poll(&pfd, 1, timeout_ms) != 1) {
                ::close(fd);
                return false;
            }
            continue;
        }
        ::close(fd);
        return false;
    }

    // The verdict is in the status line; read until it is complete.
    std::string head;
    char buf[512];
    for (;;) {
        pfd.events = POLLIN;
        if (::poll(&pfd, 1, timeout_ms) != 1)
            break;
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            head.append(buf, static_cast<std::size_t>(n));
            if (head.find("\r\n") != std::string::npos)
                break;
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    ::close(fd);
    // "HTTP/1.1 200 OK" — Ok and Degraded both answer 200; only
    // Unhealthy (503) pulls the backend (obs/health.hh).
    return head.size() >= 12 && head.compare(9, 3, "200") == 0;
}

void
Gateway::proberLoop()
{
    const int interval = opts_.healthzIntervalMs;
    while (!exiting_.load()) {
        for (auto &b : backends_) {
            if (exiting_.load())
                return;
            if (b->addr.adminPort == 0)
                continue;
            b->adminHealthy.store(probeHealthz(
                b->addr.host, b->addr.adminPort, interval));
        }
        // Sleep in small slices so stop() never waits a full period.
        for (int slept = 0; slept < interval && !exiting_.load();
             slept += 10)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
}

} // namespace sap
