/**
 * @file
 * The shared fault injector for gateway tests: a minimal
 * wire-protocol backend that answers PINGs (so the gateway declares
 * it routable and routes real work to it), never answers a FORWARD,
 * and after absorbing a configured number of them abruptly closes
 * both its connection and its listener — from the gateway's side, a
 * backend that accepted work and died without acknowledging any of
 * it. kill_after = 0 means "never die".
 *
 * Used by the gateway chaos suite (test_gateway.cc) and the
 * cross-tier trace-propagation suite (test_trace_propagation.cc);
 * both run under TSan in CI, so all cross-thread state is atomics
 * (or, for RecordingBackend's recorded frames, behind a mutex).
 *
 * RecordingBackend, beside it, keeps every FORWARD it receives byte
 * for byte, for the tests that pin what the gateway puts on the
 * wire; in its other mode it dies mid-FORWARD, with most of the
 * frame still unsent.
 */

#ifndef SAP_TESTS_FLAKY_BACKEND_HH
#define SAP_TESTS_FLAKY_BACKEND_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/byte_order.hh"
#include "net/protocol.hh"

namespace sap {

/**
 * A loopback listener on an ephemeral port, its port in *@p port.
 * @p rcvbuf > 0 caps the receive buffer its connections inherit.
 * abort()s on failure: gtest fatal assertions are not usable in
 * constructors, and a half-built injector would only fail the test
 * more confusingly later.
 */
inline int
listenForTest(std::uint16_t *port, int rcvbuf = 0)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        std::abort();
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (rcvbuf > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, 8) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) != 0)
        std::abort();
    *port = ntohs(addr.sin_port);
    return fd;
}

class FlakyBackend
{
  public:
    explicit FlakyBackend(int kill_after) : kill_after_(kill_after)
    {
        listen_fd_ = listenForTest(&port_);
        thread_ = std::thread([this] { serve(); });
    }

    ~FlakyBackend()
    {
        stop_.store(true);
        if (listen_fd_ >= 0)
            ::shutdown(listen_fd_, SHUT_RDWR);
        if (thread_.joinable())
            thread_.join();
        if (listen_fd_ >= 0)
            ::close(listen_fd_);
    }

    std::uint16_t port() const { return port_; }
    int forwardsAbsorbed() const { return forwards_.load(); }
    bool dead() const { return dead_.load(); }

  private:
    void
    serve()
    {
        while (!stop_.load() && !dead_.load()) {
            int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0)
                return; // listener shut down
            handleConn(fd);
            ::close(fd);
        }
    }

    void
    handleConn(int fd)
    {
        FrameDecoder decoder;
        std::uint8_t buf[4096];
        for (;;) {
            Frame frame;
            std::string err;
            FrameDecoder::Result res = decoder.next(&frame, &err);
            if (res == FrameDecoder::Result::Malformed)
                return;
            if (res == FrameDecoder::Result::NeedMore) {
                ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
                if (n <= 0)
                    return;
                decoder.feed(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (frame.header.type ==
                static_cast<std::uint16_t>(FrameType::Ping)) {
                std::vector<std::uint8_t> echo = buildFrame(
                    FrameType::Ping, frame.header.tag, frame.payload);
                (void)!::send(fd, echo.data(), echo.size(),
                              MSG_NOSIGNAL);
            } else if (frame.header.type ==
                       static_cast<std::uint16_t>(
                           FrameType::Forward)) {
                int seen = forwards_.fetch_add(1) + 1;
                if (kill_after_ > 0 && seen >= kill_after_) {
                    // Die taking the listener with us: reconnect
                    // attempts must fail, not quietly resurrect the
                    // backend mid-test.
                    dead_.store(true);
                    ::shutdown(listen_fd_, SHUT_RDWR);
                    return;
                }
            }
            // Everything else (STATS, METRICS, TRACES, ...) is
            // absorbed silently, like the FORWARDs.
        }
    }

    int kill_after_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread thread_;
    std::atomic<int> forwards_{0};
    std::atomic<bool> stop_{false};
    std::atomic<bool> dead_{false};
};

/**
 * A backend that answers PINGs and, per FORWARD, does one of two
 * things:
 *
 *  - Record: keeps the frame as it came off the wire and answers it
 *    with an ERROR frame ("recorded"), so the client's call ends;
 *  - DieMidFrame: reads the frame's header only, then closes its
 *    connection and its listener. Its receive buffer is capped at
 *    4 KiB, so a large FORWARD is then mostly still queued at the
 *    gateway.
 */
class RecordingBackend
{
  public:
    enum class OnForward
    {
        Record,
        DieMidFrame,
    };

    explicit RecordingBackend(OnForward mode) : mode_(mode)
    {
        listen_fd_ = listenForTest(
            &port_, mode == OnForward::DieMidFrame ? 4096 : 0);
        thread_ = std::thread([this] { serve(); });
    }

    ~RecordingBackend()
    {
        stop_.store(true);
        ::shutdown(listen_fd_, SHUT_RDWR);
        {
            std::lock_guard<std::mutex> lock(conn_mu_);
            if (conn_fd_ >= 0)
                ::shutdown(conn_fd_, SHUT_RDWR);
        }
        if (thread_.joinable())
            thread_.join();
        ::close(listen_fd_);
    }

    RecordingBackend(const RecordingBackend &) = delete;
    RecordingBackend &operator=(const RecordingBackend &) = delete;

    std::uint16_t port() const { return port_; }
    bool dead() const { return dead_.load(); }

    /** The FORWARD frames recorded so far, whole, in arrival order. */
    std::vector<std::vector<std::uint8_t>>
    forwards() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return forwards_;
    }

  private:
    static bool
    recvAll(int fd, std::uint8_t *data, std::size_t len)
    {
        while (len > 0) {
            const ssize_t n = ::recv(fd, data, len, 0);
            if (n <= 0)
                return false;
            data += n;
            len -= static_cast<std::size_t>(n);
        }
        return true;
    }

    void
    serve()
    {
        while (!stop_.load() && !dead_.load()) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0)
                return; // listener shut down
            {
                std::lock_guard<std::mutex> lock(conn_mu_);
                conn_fd_ = fd;
            }
            handleConn(fd);
            std::lock_guard<std::mutex> lock(conn_mu_);
            conn_fd_ = -1;
            ::close(fd);
        }
    }

    void
    handleConn(int fd)
    {
        for (;;) {
            std::vector<std::uint8_t> frame(kFrameHeaderBytes);
            if (!recvAll(fd, frame.data(), frame.size()))
                return;
            const std::uint16_t type = loadLe16(frame.data() + 6);
            const std::uint64_t tag = loadLe64(frame.data() + 8);
            const std::uint32_t len = loadLe32(frame.data() + 16);
            const bool forward =
                type == static_cast<std::uint16_t>(FrameType::Forward);
            if (forward && mode_ == OnForward::DieMidFrame) {
                dead_.store(true);
                ::shutdown(listen_fd_, SHUT_RDWR);
                return;
            }
            frame.resize(kFrameHeaderBytes + len);
            if (!recvAll(fd, frame.data() + kFrameHeaderBytes, len))
                return;
            std::vector<std::uint8_t> reply;
            if (type == static_cast<std::uint16_t>(FrameType::Ping)) {
                reply = std::move(frame);
            } else if (forward) {
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    forwards_.push_back(std::move(frame));
                }
                reply = buildErrorFrame(tag, "recorded");
            }
            if (!reply.empty() &&
                ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL) !=
                    static_cast<ssize_t>(reply.size()))
                return;
        }
    }

    OnForward mode_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stop_{false};
    std::atomic<bool> dead_{false};
    /** The connection being served (-1 between connections), so the
     *  destructor can unblock its recv(). */
    std::mutex conn_mu_;
    int conn_fd_ = -1;
    mutable std::mutex mu_;
    std::vector<std::vector<std::uint8_t>> forwards_;
    /** Last: it uses everything above. */
    std::thread thread_;
};

} // namespace sap

#endif // SAP_TESTS_FLAKY_BACKEND_HH
