#include "net/front_door.hh"

#include <algorithm>
#include <cerrno>
#include <utility>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/logging.hh"
#include "obs/trace_export.hh"

namespace sap {

namespace {

/** Wait period; also bounds shutdown-flush latency, how long a
 *  closing connection can linger after its last reply flushed, and
 *  the owner's tick granularity. */
constexpr int kWaitTimeoutMs = 50;

/** Shutdown flush gives a slow client at most this many periods. */
constexpr int kMaxFlushSpins = 40; // ~2 s with kWaitTimeoutMs

/** The event-loop key layout (see the file comment). */
constexpr std::uint64_t kWakeKey = 0;
constexpr std::uint64_t kListenKey = 1;
constexpr std::uint64_t kOwnerKeyBase = 2;

/** The door whose IO thread this is (null on every other thread):
 *  send() from it installs interest directly instead of waking. */
thread_local const FrontDoor *tls_io_door = nullptr;

} // namespace

FrontDoor::FrontDoor(const char *name, std::size_t max_queued_output,
                     Hooks hooks)
    : name_(name), max_queued_output_(max_queued_output),
      hooks_(std::move(hooks)),
      next_conn_id_(std::max<std::uint64_t>(
          16, kOwnerKeyBase + hooks_.ownerFds))
{
}

FrontDoor::~FrontDoor()
{
    stop(false);
}

bool
FrontDoor::open(std::uint16_t port, std::string *error)
{
    // Backlog 1024: a reconnect storm (every client of a restarted
    // fleet at once) must queue, not shed SYNs onto 1-second client
    // retry timers. Clamped to somaxconn by the kernel.
    listen_fd_ = listenLoopback(port, 1024, &port_, error);
    if (listen_fd_ < 0)
        return false;
    if (!wake_.open(error)) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    return true;
}

void
FrontDoor::start()
{
    serving_.store(true);
    io_thread_ = std::thread([this] { ioLoop(); });
}

void
FrontDoor::quiesce()
{
    serving_.store(false);
    wake_.wake();
    std::unique_lock<std::mutex> lock(quiesce_mutex_);
    quiesce_cv_.wait(lock, [this] { return quiesced_; });
}

void
FrontDoor::stop(bool flush)
{
    if (io_thread_.joinable()) {
        flush_on_exit_ = flush;
        serving_.store(false);
        exit_.store(true);
        wake_.wake();
        io_thread_.join();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    wake_.close();
}

FrontDoor::Counts
FrontDoor::counts() const
{
    Counts c;
    c.bytesIn = bytes_in_.load(std::memory_order_relaxed);
    c.bytesOut = bytes_out_.load(std::memory_order_relaxed);
    c.framesIn = frames_in_.load(std::memory_order_relaxed);
    c.accepted = accepted_.load(std::memory_order_relaxed);
    c.live = live_.load(std::memory_order_relaxed);
    c.errorsSent = errors_sent_.load(std::memory_order_relaxed);
    return c;
}

bool
FrontDoor::send(std::uint64_t conn, std::vector<std::uint8_t> bytes,
                Counter *queued)
{
    return enqueue(conn, std::move(bytes), {}, queued);
}

bool
FrontDoor::sendFrame(std::uint64_t conn, FrameType type, std::uint64_t tag,
                     std::vector<std::uint8_t> payload)
{
    std::vector<std::uint8_t> head =
        buildFrameHeader(type, tag, payload.size());
    return enqueue(conn, std::move(head), std::move(payload), nullptr);
}

bool
FrontDoor::enqueue(std::uint64_t conn, std::vector<std::uint8_t> head,
                   std::vector<std::uint8_t> body, Counter *queued)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = conns_.find(conn);
        if (it == conns_.end())
            return false; // connection is gone; drop the bytes
        // The IO thread flushes under mu_, so this count happens
        // before the first byte is written.
        if (queued)
            queued->add();
        it->second->sock.queue(std::move(head));
        it->second->sock.queue(std::move(body));
        if (tls_io_door == this) {
            updateInterestLocked(conn, *it->second);
            return true;
        }
        // The IO thread owns the event loop; it picks up the new
        // write interest when the wake lands.
        dirty_.push_back(conn);
    }
    wake_.wake();
    return true;
}

bool
FrontDoor::sendError(std::uint64_t conn, std::uint64_t tag,
                     const std::string &message)
{
    errors_sent_.fetch_add(1, std::memory_order_relaxed);
    SAP_LOG_DEBUG(name_, ": conn ", conn, ": error: ", message);
    return send(conn, buildErrorFrame(tag, message));
}

void
FrontDoor::watch(int fd, std::uint32_t interest, std::size_t index)
{
    loop_.set(fd, interest, kOwnerKeyBase + index);
}

void
FrontDoor::unwatch(int fd)
{
    loop_.remove(fd);
}

void
FrontDoor::acknowledgeQuiesce()
{
    std::lock_guard<std::mutex> lock(quiesce_mutex_);
    quiesced_ = true;
    quiesce_cv_.notify_all();
}

void
FrontDoor::updateInterestLocked(std::uint64_t id, Conn &conn)
{
    const std::size_t queued = conn.sock.queuedBytes();
    std::uint32_t mask = 0;
    // Backpressure: a client that is not reading its replies stops
    // being read from until its queued output drains.
    if (serving_.load() && !conn.closing && queued <= max_queued_output_)
        mask |= EventLoop::kRead;
    if (queued > 0)
        mask |= EventLoop::kWrite;
    if (mask != conn.interest) {
        loop_.set(conn.sock.fd, mask, id);
        conn.interest = mask;
    }
}

void
FrontDoor::closeLocked(std::uint64_t id)
{
    auto it = conns_.find(id);
    if (it == conns_.end())
        return;
    loop_.remove(it->second->sock.fd); // before close(): see EventLoop
    closing_.erase(id);
    conns_.erase(it); // the FramedSocket closes the fd
    live_.fetch_sub(1, std::memory_order_relaxed);
    SAP_LOG_DEBUG(name_, ": conn ", id, " closed");
}

void
FrontDoor::sweepLocked()
{
    // Close what is closing, fully flushed, AND owed nothing: a
    // client may pipeline requests and shut down its write side
    // before reading — its replies are still in flight, so the
    // connection must survive until they are delivered and flushed.
    // Swept every wakeup (bounded by the closing set, not the
    // connection count) because the last owed reply can be settled
    // on another thread without a wake.
    for (auto it = closing_.begin(); it != closing_.end();) {
        const std::uint64_t id = *it++;
        auto cit = conns_.find(id);
        if (cit == conns_.end())
            closing_.erase(id);
        else if (cit->second->sock.queuedBytes() == 0 &&
                 !hooks_.owesWork(id))
            closeLocked(id);
    }
}

void
FrontDoor::acceptReady()
{
    for (;;) {
        int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK) {
                // Persistent failure (EMFILE/ENFILE...): the pending
                // connection keeps the listen socket readable, so
                // back off from watching it for a while instead of
                // spinning the IO thread hot.
                listen_backoff_ = 20; // ~1 s of wait periods
            }
            return;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        std::uint64_t id = 0;
        {
            std::lock_guard<std::mutex> lock(mu_);
            id = next_conn_id_++;
            auto it = conns_.emplace(id, std::make_unique<Conn>(fd)).first;
            updateInterestLocked(id, *it->second);
        }
        accepted_.fetch_add(1, std::memory_order_relaxed);
        live_.fetch_add(1, std::memory_order_relaxed);
        SAP_LOG_DEBUG(name_, ": conn ", id, " accepted");
    }
}

bool
FrontDoor::readReady(std::uint64_t id, Conn &conn)
{
    if (conn.closing)
        return true; // a malformed frame or EOF ended reading
    Frame frame;
    std::string err;
    std::uint64_t received = 0;
    for (;;) {
        const FramedSocket::Read r = conn.sock.next(&frame, &err, &received);
        bytes_in_.fetch_add(std::exchange(received, 0),
                            std::memory_order_relaxed);
        switch (r) {
        case FramedSocket::Read::Frame:
            frames_in_.fetch_add(1, std::memory_order_relaxed);
            if (frame.header.type ==
                static_cast<std::uint16_t>(FrameType::Ping))
                // Echoed verbatim, payload included (protocol.hh).
                sendFrame(id, FrameType::Ping, frame.header.tag,
                          std::move(frame.payload));
            else
                hooks_.onFrame(id, std::move(frame));
            continue;
        case FramedSocket::Read::Drained:
            return true;
        case FramedSocket::Read::Malformed:
            // Frame-level violation: the stream cannot recover. One
            // ERROR frame, then close after the flush.
            SAP_LOG_WARN(name_, ": conn ", id,
                         ": unrecoverable frame error: ", err);
            sendError(id, 0, err);
            conn.closing = true;
            return true;
        case FramedSocket::Read::Eof:
            // Peer finished writing; deliver what is owed, then close.
            conn.closing = true;
            return true;
        case FramedSocket::Read::Failed:
            return false; // dead socket
        }
    }
}

void
FrontDoor::serveConn(const EventLoop::Ready &ev, bool serving)
{
    const std::uint64_t id = ev.key;
    Conn *conn = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = conns_.find(id);
        if (it == conns_.end())
            return; // closed earlier in this batch
        if (ev.error) {
            closeLocked(id);
            return;
        }
        conn = it->second.get();
    }
    // Only this thread erases connections, so the pointer stays valid
    // without holding the lock.
    bool alive = true;
    if (ev.writable) {
        std::uint64_t sent = 0;
        std::lock_guard<std::mutex> lock(mu_);
        alive = conn->sock.flush(&sent);
        bytes_out_.fetch_add(sent, std::memory_order_relaxed);
    }
    // Gated on `serving` (not just the installed interest): epoll
    // reports hangup even when reads were not asked for, and once
    // this iteration acknowledged quiesce, reading — and the onFrame
    // it can trigger — must not race the owner's teardown.
    if (alive && serving && (ev.readable || ev.hangup))
        alive = readReady(id, *conn);
    std::lock_guard<std::mutex> lock(mu_);
    if (!alive) {
        closeLocked(id);
        return;
    }
    // Reading/flushing changed queued bytes or set closing; reinstall
    // the mask and track closing connections for the sweep.
    updateInterestLocked(id, *conn);
    if (conn->closing)
        closing_.insert(id);
}

void
FrontDoor::ioLoop()
{
    tls_io_door = this;
    SAP_ASSERT(loop_.valid(), "event loop creation failed");
    loop_.set(wake_.readFd(), EventLoop::kRead, kWakeKey);
    int flush_spins = 0;
    bool was_serving = true;

    for (;;) {
        const bool serving = serving_.load();
        if (!serving && !quiesced_)
            acknowledgeQuiesce();
        const bool exiting = exit_.load();
        if (exiting && !flush_on_exit_)
            break;

        // Listen-socket interest follows the serving flag and the
        // accept() backoff (see acceptReady()).
        if (serving && listen_backoff_ == 0) {
            loop_.set(listen_fd_, EventLoop::kRead, kListenKey);
        } else {
            loop_.remove(listen_fd_);
            if (listen_backoff_ > 0)
                --listen_backoff_;
        }

        bool any_output = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            // Interest masks are event-driven, not rebuilt per
            // wakeup: only connections another thread marked dirty
            // are touched — unless the serving flag just flipped or
            // we are flushing to exit, which changes every mask.
            if (serving != was_serving || exiting) {
                for (auto &entry : conns_)
                    updateInterestLocked(entry.first, *entry.second);
            } else {
                for (std::uint64_t id : dirty_) {
                    auto it = conns_.find(id);
                    if (it != conns_.end())
                        updateInterestLocked(id, *it->second);
                }
            }
            dirty_.clear();
            was_serving = serving;
            sweepLocked();
            if (exiting)
                for (const auto &entry : conns_)
                    any_output |= entry.second->sock.queuedBytes() > 0;
        }
        if (exiting && (!any_output || ++flush_spins > kMaxFlushSpins))
            break;

        loop_.wait(kWaitTimeoutMs);
        if (hooks_.onTick)
            hooks_.onTick();

        for (const EventLoop::Ready &ev : loop_.ready()) {
            if (ev.key == kWakeKey)
                wake_.drain();
            else if (ev.key == kListenKey)
                acceptReady();
            else if (ev.key < kOwnerKeyBase + hooks_.ownerFds)
                hooks_.onOwnerReady(
                    static_cast<std::size_t>(ev.key - kOwnerKeyBase), ev);
            else
                serveConn(ev, serving);
        }
    }

    // Exit: make sure quiesce() never waits on an acknowledgement
    // that already happened implicitly, then drop every connection.
    acknowledgeQuiesce();
    std::lock_guard<std::mutex> lock(mu_);
    while (!conns_.empty())
        closeLocked(conns_.begin()->first);
}

//----------------------------------------------------------------------
// The admin plane.
//----------------------------------------------------------------------

AdminPlane::AdminPlane(std::function<MetricsSnapshot()> snapshot,
                       std::function<HealthInputs()> inputs,
                       std::string p99_series)
    : snapshot_(std::move(snapshot)), inputs_(std::move(inputs)),
      p99_series_(std::move(p99_series))
{
}

HealthReport
AdminPlane::report() const
{
    HealthInputs in = inputs_();
    if (!health_) {
        HealthReport report;
        report.state = HealthState::Ok;
        report.live = true;
        report.ready = in.serving;
        return report;
    }
    in.p99Micros = recorder_->latestValue(p99_series_);
    in.nowSeconds = monotonicSeconds();
    return health_->evaluate(in);
}

void
AdminPlane::stop()
{
    if (http_)
        http_->stop();
    if (recorder_)
        recorder_->stop();
}

bool
AdminPlane::start(const FrontDoorOptions &opts, const std::string &title,
                  Tracez tracez, std::string *error)
{
    if (!opts.adminEnabled)
        return true;
    health_ = std::make_unique<HealthModel>(opts.health);
    FlightRecorderConfig rc;
    rc.intervalSeconds = opts.samplerIntervalSeconds;
    recorder_ = std::make_unique<FlightRecorder>(snapshot_, rc);
    http_ = std::make_unique<HttpAdminServer>(opts.adminPort);

    http_->addHandler("/", [title](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "text/html; charset=utf-8";
        resp.body =
            "<!doctype html><title>" + title + "</title><h1>" + title +
            "</h1><ul>"
            "<li><a href=\"/metrics\">/metrics</a> — Prometheus "
            "text exposition</li>"
            "<li><a href=\"/healthz\">/healthz</a> — liveness "
            "(200/503)</li>"
            "<li><a href=\"/readyz\">/readyz</a> — readiness "
            "(200/503)</li>"
            "<li><a href=\"/tracez\">/tracez</a> — recent request "
            "traces (<a href=\"/tracez?format=chrome\">Perfetto "
            "format</a>)</li>"
            "<li><a href=\"/varz\">/varz</a> — full metrics "
            "snapshot as JSON</li>"
            "<li><a href=\"/timeseriesz\">/timeseriesz</a> — "
            "flight-recorder time series</li>"
            "</ul>";
        return resp;
    });
    http_->addHandler("/metrics", [this](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
        resp.body = renderPrometheus(snapshot_());
        return resp;
    });
    http_->addHandler("/varz", [this](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "application/json";
        resp.body = renderMetricsJson(snapshot_());
        return resp;
    });
    // /healthz answers liveness, /readyz readiness: 200 or 503.
    for (const bool ready : {false, true})
        http_->addHandler(
            ready ? "/readyz" : "/healthz",
            [this, ready](const HttpRequest &) {
                const HealthReport health = report();
                const bool up = ready ? health.ready : health.live;
                HttpResponse resp;
                resp.status = up ? 200 : 503;
                resp.body = ready ? (up ? "ready" : "not ready")
                                  : healthStateName(health.state);
                if (!health.reason.empty())
                    resp.body += ": " + health.reason;
                resp.body += "\n";
                return resp;
            });
    http_->addHandler("/timeseriesz", [this](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "application/json";
        resp.body = toTimeseriesJson(recorder_->snapshot());
        return resp;
    });
    http_->addHandler("/tracez", [tracez = std::move(tracez)](
                                     const HttpRequest &req) {
        HttpResponse resp;
        resp.contentType = "application/json";
        std::uint64_t min_us = 0;
        std::string kind, parse_err;
        if (!parseTraceQuery(req.query, &min_us, &kind, &parse_err)) {
            resp.status = 400;
            resp.contentType = "text/plain; charset=utf-8";
            resp.body = parse_err + "\n";
            return resp;
        }
        std::uint64_t total = 0;
        std::vector<RequestTrace> traces =
            filterTraces(tracez.fetch(&total), min_us, kind);
        auto it = req.query.find("format");
        if (it != req.query.end() && it->second == "chrome") {
            resp.body = toChromeTraceJson(traces);
            // A download, not a page: chrome://tracing / Perfetto
            // load the saved file.
            resp.extraHeaders.emplace_back(
                "Content-Disposition",
                "attachment; filename=\"" + tracez.chromeFile + "\"");
        } else {
            resp.body = tracez.render(std::move(traces), total);
        }
        return resp;
    });

    if (!http_->start()) {
        *error = "admin: " + http_->error();
        http_.reset();
        recorder_.reset();
        health_.reset();
        return false;
    }
    recorder_->start();
    return true;
}

} // namespace sap
