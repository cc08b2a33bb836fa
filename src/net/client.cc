#include "net/client.hh"

#include <cerrno>
#include <cstring>
#include <map>

#include <poll.h>
#include <sys/socket.h>

#include "base/socket_util.hh"

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
NetClient::drop(const std::string &message)
{
    disconnect();
    return fail(message);
}

bool
NetClient::connect(const std::string &host, std::uint16_t port)
{
    if (sock_.fd >= 0)
        return fail("already connected");
    sock_.close(); // drop what a failed call left buffered
    bool pending = false;
    std::string err;
    sock_.fd = connectTcp(host, port, &pending, &err);
    if (sock_.fd < 0)
        return fail(err);
    if (sndbuf_bytes_ > 0)
        ::setsockopt(sock_.fd, SOL_SOCKET, SO_SNDBUF, &sndbuf_bytes_,
                     sizeof(sndbuf_bytes_));
    // Non-blocking throughout: every wait goes through poll(), so a
    // full send buffer can never wedge a call that still has
    // responses to read (see the file comment).
    struct pollfd pfd = {sock_.fd, POLLOUT, 0};
    while (pending && ::poll(&pfd, 1, -1) < 0)
        if (errno != EINTR)
            return drop(errnoString("poll"));
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    ::getsockopt(sock_.fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
    if (soerr != 0)
        return drop(std::string("connect: ") + std::strerror(soerr));
    error_.clear();
    return true;
}

void
NetClient::disconnect()
{
    sock_.close();
}

bool
NetClient::nextFrame(Frame *out)
{
    if (sock_.fd < 0)
        return fail("not connected");
    std::uint64_t sent = 0, received = 0;
    std::string err;
    for (;;) {
        // Send what the socket takes, then read; wait only when
        // neither side can move. Interleaving is what keeps a long
        // pipeline from deadlocking against the server's backpressure
        // (see the file comment).
        if (!sock_.flush(&sent))
            return drop(errnoString("send"));
        const FramedSocket::Read r = sock_.next(out, &err, &received);
        if (r == FramedSocket::Read::Frame)
            return true;
        if (r != FramedSocket::Read::Drained)
            return drop(FramedSocket::endReason(r, err));
        struct pollfd pfd = {sock_.fd, POLLIN, 0};
        if (sock_.queuedBytes() > 0)
            pfd.events |= POLLOUT;
        if (::poll(&pfd, 1, -1) < 0 && errno != EINTR)
            return drop(errnoString("poll"));
    }
}

bool
NetClient::roundTrip(std::vector<std::uint8_t> request, std::uint64_t tag,
                     FrameType type, Frame *reply)
{
    sock_.queue(std::move(request));
    if (!nextFrame(reply))
        return false;
    if (reply->header.type != static_cast<std::uint16_t>(type) ||
        reply->header.tag != tag)
        return fail("unexpected " + frameTypeName(reply->header.type) +
                    " frame in reply to " +
                    frameTypeName(static_cast<std::uint16_t>(type)));
    return true;
}

NetClient::Result
NetClient::submit(const ServeRequest &req)
{
    const ServeRequest *one = &req;
    return std::move(submitEach(&one, 1).front());
}

std::vector<NetClient::Result>
NetClient::submitBatch(const std::vector<ServeRequest> &reqs)
{
    std::vector<const ServeRequest *> each;
    each.reserve(reqs.size());
    for (const ServeRequest &req : reqs)
        each.push_back(&req);
    return submitEach(each.data(), each.size());
}

std::vector<NetClient::Result>
NetClient::submitEach(const ServeRequest *const *reqs, std::size_t n)
{
    std::vector<Result> results(n);
    if (n == 0)
        return results;

    // Pipeline all SUBMITs; nextFrame() interleaves sending the rest
    // with reading responses (file comment).
    std::map<std::uint64_t, std::size_t> slot_of;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t tag = next_tag_++;
        slot_of[tag] = i;
        if (submit_frame_.use_count() == 1) {
            buildSubmitFrame(tag, *reqs[i], submit_frame_.get());
            sock_.queue(SharedBytes(submit_frame_));
        } else {
            sock_.queue(buildSubmitFrame(tag, *reqs[i]));
        }
    }
    auto fail_rest = [&] {
        for (const auto &entry : slot_of)
            results[entry.second].transportError = error_;
    };

    for (std::size_t outstanding = n; outstanding > 0;) {
        Frame frame;
        std::string err;
        if (!nextFrame(&frame)) {
            fail_rest();
            return results;
        }
        auto it = slot_of.find(frame.header.tag);
        if (it == slot_of.end()) {
            // A frame we did not ask for: a server-side frame-level
            // ERROR (tag 0) is fatal to the stream; anything else is
            // a protocol violation by the server.
            std::string message =
                "unexpected " + frameTypeName(frame.header.type) +
                " frame for unknown tag " +
                std::to_string(frame.header.tag);
            std::string detail;
            if (frame.header.type ==
                    static_cast<std::uint16_t>(FrameType::Error) &&
                decodeError(frame.payload, &detail, nullptr))
                message += ": " + detail;
            drop(message);
            fail_rest();
            return results;
        }
        Result &result = results[it->second];
        slot_of.erase(it);
        --outstanding;

        if (frame.header.type ==
            static_cast<std::uint16_t>(FrameType::Response)) {
            if (!decodeResponse(frame.payload, &result.response, &err)) {
                result.transportError = "undecodable RESPONSE: " + err;
                continue;
            }
            result.transportOk = true;
        } else if (frame.header.type ==
                   static_cast<std::uint16_t>(FrameType::Error)) {
            std::string message;
            if (!decodeError(frame.payload, &message, &err)) {
                result.transportError = "undecodable ERROR: " + err;
                continue;
            }
            // Application-level rejection: surfaced like a served
            // error response.
            result.transportOk = true;
            result.response.ok = false;
            result.response.error = message;
        } else {
            result.transportError =
                "unexpected " + frameTypeName(frame.header.type) +
                " frame in reply to SUBMIT";
        }
    }
    return results;
}

bool
NetClient::metrics(MetricsSnapshot *out)
{
    const std::uint64_t tag = next_tag_++;
    Frame frame;
    if (!roundTrip(buildMetricsRequestFrame(tag), tag, FrameType::Metrics,
                   &frame))
        return false;
    std::string err;
    if (!decodeMetrics(frame.payload, out, &err))
        return fail("undecodable METRICS: " + err);
    return true;
}

bool
NetClient::traces(std::vector<RequestTrace> *out,
                  std::uint64_t *totalCommitted)
{
    const std::uint64_t tag = next_tag_++;
    Frame frame;
    if (!roundTrip(buildTracesRequestFrame(tag), tag, FrameType::Traces,
                   &frame))
        return false;
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
    const std::uint64_t tag = next_tag_++;
    Frame frame;
    return roundTrip(buildPingFrame(tag), tag, FrameType::Ping, &frame);
}

bool
NetClient::matchesOracle(const ServeRequest &req,
                         const WireResponse &resp)
{
    return req.plan.matchesOracle(resp.y, resp.c);
}

} // namespace sap
