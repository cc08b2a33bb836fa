#include "net/client.hh"

#include <cerrno>
#include <cstring>
#include <map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mat/ops.hh"

namespace sap {

NetClient::~NetClient()
{
    disconnect();
}

bool
NetClient::fail(const std::string &message)
{
    error_ = message;
    return false;
}

bool
NetClient::connect(const std::string &host, std::uint16_t port)
{
    if (fd_ >= 0)
        return fail("already connected");

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    const std::string node = host == "localhost" ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, node.c_str(), &addr.sin_addr) != 1)
        return fail("unparseable IPv4 address '" + host + "'");

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return fail(std::string("socket: ") + std::strerror(errno));
    if (sndbuf_bytes_ > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf_bytes_,
                     sizeof(sndbuf_bytes_));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        std::string err =
            std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return fail(err);
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Non-blocking from here on: every wait below goes through
    // poll(), so a full send buffer can never wedge a call that
    // still has responses to read (see the file comment).
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
        std::string err =
            std::string("fcntl: ") + std::strerror(errno);
        ::close(fd);
        return fail(err);
    }
    fd_ = fd;
    decoder_ = FrameDecoder(max_payload_);
    error_.clear();
    return true;
}

void
NetClient::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
NetClient::sendAll(const std::vector<std::uint8_t> &bytes)
{
    if (fd_ < 0)
        return fail("not connected");
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            struct pollfd pfd = {fd_, POLLOUT, 0};
            if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) {
                disconnect();
                return fail(std::string("poll: ") +
                            std::strerror(errno));
            }
            continue;
        }
        disconnect();
        return fail(std::string("send: ") + std::strerror(errno));
    }
    return true;
}

bool
NetClient::readFrame(Frame *out)
{
    if (fd_ < 0)
        return fail("not connected");
    std::uint8_t buf[65536];
    for (;;) {
        std::string err;
        FrameDecoder::Result res = decoder_.next(out, &err);
        if (res == FrameDecoder::Result::Ok)
            return true;
        if (res == FrameDecoder::Result::Malformed) {
            disconnect();
            return fail("malformed server stream: " + err);
        }
        ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n > 0) {
            decoder_.feed(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            struct pollfd pfd = {fd_, POLLIN, 0};
            if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) {
                disconnect();
                return fail(std::string("poll: ") +
                            std::strerror(errno));
            }
            continue;
        }
        std::string reason =
            n == 0 ? "server closed the connection"
                   : std::string("recv: ") + std::strerror(errno);
        disconnect();
        return fail(reason);
    }
}

NetClient::Result
NetClient::submit(const ServeRequest &req)
{
    std::vector<Result> results = submitBatch({req});
    return std::move(results.front());
}

std::vector<NetClient::Result>
NetClient::submitBatch(const std::vector<ServeRequest> &reqs)
{
    std::vector<Result> results(reqs.size());
    if (reqs.empty())
        return results;

    // Pipeline all SUBMITs, interleaving sends with reads: once the
    // socket send buffer fills (the server pushes back on clients
    // that pipeline without reading), the only way to make progress
    // is to drain responses while the rest of the pipeline trickles
    // out — a write-until-done loop here deadlocks (file comment).
    std::map<std::uint64_t, std::size_t> slot_of;
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        std::uint64_t tag = next_tag_++;
        slot_of[tag] = i;
        std::vector<std::uint8_t> f = buildSubmitFrame(tag, reqs[i]);
        out.insert(out.end(), f.begin(), f.end());
    }

    auto fail_rest = [&] {
        for (const auto &entry : slot_of)
            results[entry.second].transportError = error_;
    };
    if (fd_ < 0) {
        fail("not connected");
        fail_rest();
        return results;
    }

    std::size_t off = 0;
    std::size_t outstanding = reqs.size();
    std::uint8_t buf[65536];
    while (outstanding > 0) {
        // Consume every complete frame already buffered.
        bool fatal = false;
        for (;;) {
            Frame frame;
            std::string err;
            FrameDecoder::Result res = decoder_.next(&frame, &err);
            if (res == FrameDecoder::Result::NeedMore)
                break;
            if (res == FrameDecoder::Result::Malformed) {
                disconnect();
                fail("malformed server stream: " + err);
                fatal = true;
                break;
            }
            auto it = slot_of.find(frame.header.tag);
            if (it == slot_of.end()) {
                // A frame we did not ask for: a server-side
                // frame-level ERROR (tag 0) is fatal to the stream;
                // anything else is a protocol violation by the
                // server.
                std::string message =
                    "unexpected " + frameTypeName(frame.header.type) +
                    " frame for unknown tag " +
                    std::to_string(frame.header.tag);
                std::string detail;
                if (frame.header.type ==
                        static_cast<std::uint16_t>(FrameType::Error) &&
                    decodeError(frame.payload, &detail, nullptr))
                    message += ": " + detail;
                disconnect();
                fail(message);
                fatal = true;
                break;
            }
            Result &result = results[it->second];
            slot_of.erase(it);
            --outstanding;

            if (frame.header.type ==
                static_cast<std::uint16_t>(FrameType::Response)) {
                if (!decodeResponse(frame.payload, &result.response,
                                    &err)) {
                    result.transportError =
                        "undecodable RESPONSE: " + err;
                    continue;
                }
                result.transportOk = true;
            } else if (frame.header.type ==
                       static_cast<std::uint16_t>(FrameType::Error)) {
                std::string message;
                if (!decodeError(frame.payload, &message, &err)) {
                    result.transportError =
                        "undecodable ERROR: " + err;
                    continue;
                }
                // Application-level rejection: surfaced like a
                // served error response.
                result.transportOk = true;
                result.response.ok = false;
                result.response.error = message;
            } else {
                result.transportError =
                    "unexpected " + frameTypeName(frame.header.type) +
                    " frame in reply to SUBMIT";
            }
        }
        if (fatal) {
            fail_rest();
            return results;
        }
        if (outstanding == 0)
            break;

        struct pollfd pfd = {fd_, POLLIN, 0};
        if (off < out.size())
            pfd.events |= POLLOUT;
        int pr = ::poll(&pfd, 1, -1);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            disconnect();
            fail(std::string("poll: ") + std::strerror(errno));
            fail_rest();
            return results;
        }

        if (pfd.revents & POLLOUT) {
            while (off < out.size()) {
                ssize_t n = ::send(fd_, out.data() + off,
                                   out.size() - off, MSG_NOSIGNAL);
                if (n > 0) {
                    off += static_cast<std::size_t>(n);
                    continue;
                }
                if (n < 0 &&
                    (errno == EAGAIN || errno == EWOULDBLOCK))
                    break;
                if (n < 0 && errno == EINTR)
                    continue;
                disconnect();
                fail(std::string("send: ") + std::strerror(errno));
                fail_rest();
                return results;
            }
        }
        if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n > 0) {
                decoder_.feed(buf, static_cast<std::size_t>(n));
            } else if (n == 0) {
                disconnect();
                fail("server closed the connection");
                fail_rest();
                return results;
            } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR) {
                disconnect();
                fail(std::string("recv: ") + std::strerror(errno));
                fail_rest();
                return results;
            }
        }
    }
    return results;
}

bool
NetClient::metrics(MetricsSnapshot *out)
{
    std::uint64_t tag = next_tag_++;
    if (!sendAll(buildMetricsRequestFrame(tag)))
        return false;
    Frame frame;
    if (!readFrame(&frame))
        return false;
    if (frame.header.type !=
            static_cast<std::uint16_t>(FrameType::Metrics) ||
        frame.header.tag != tag)
        return fail("unexpected " + frameTypeName(frame.header.type) +
                    " frame in reply to METRICS");
    std::string err;
    if (!decodeMetrics(frame.payload, out, &err))
        return fail("undecodable METRICS: " + err);
    return true;
}

bool
NetClient::traces(std::vector<RequestTrace> *out,
                  std::uint64_t *totalCommitted)
{
    std::uint64_t tag = next_tag_++;
    if (!sendAll(buildTracesRequestFrame(tag)))
        return false;
    Frame frame;
    if (!readFrame(&frame))
        return false;
    if (frame.header.type !=
            static_cast<std::uint16_t>(FrameType::Traces) ||
        frame.header.tag != tag)
        return fail("unexpected " + frameTypeName(frame.header.type) +
                    " frame in reply to TRACES");
    std::vector<RequestTrace> traces;
    std::uint64_t total = 0;
    std::string err;
    if (!decodeTraces(frame.payload, &traces, &total, &err))
        return fail("undecodable TRACES: " + err);
    if (out)
        *out = std::move(traces);
    if (totalCommitted)
        *totalCommitted = total;
    return true;
}

bool
NetClient::ping()
{
    std::uint64_t tag = next_tag_++;
    if (!sendAll(buildPingFrame(tag)))
        return false;
    Frame frame;
    if (!readFrame(&frame))
        return false;
    if (frame.header.type !=
            static_cast<std::uint16_t>(FrameType::Ping) ||
        frame.header.tag != tag)
        return fail("unexpected " + frameTypeName(frame.header.type) +
                    " frame in reply to PING");
    return true;
}

bool
NetClient::matchesOracle(const ServeRequest &req,
                         const WireResponse &resp)
{
    switch (req.plan.kind) {
    case ProblemKind::MatVec: {
        Vec<Scalar> gold = matVec(req.plan.a, req.plan.x, req.plan.b);
        return resp.y.size() == gold.size() &&
               maxAbsDiff(resp.y, gold) == 0.0;
    }
    case ProblemKind::MatMul:
        return resp.c ==
               matMulAdd(req.plan.a, req.plan.bmat, req.plan.e);
    case ProblemKind::TriSolve: {
        Vec<Scalar> gold = forwardSolve(req.plan.a, req.plan.b);
        return resp.y.size() == gold.size() &&
               maxAbsDiff(resp.y, gold) == 0.0;
    }
    }
    return false;
}

} // namespace sap
