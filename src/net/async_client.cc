#include "net/async_client.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>

#include "base/socket_util.hh"

namespace sap {

bool
AsyncClient::connectStart(const std::string &host, std::uint16_t port)
{
    sock_.close();
    error_.clear();
    bool pending = false;
    sock_.fd = connectTcp(host, port, &pending, &error_);
    state_ = sock_.fd < 0 ? State::Closed
             : pending    ? State::Connecting
                          : State::Connected;
    return sock_.fd >= 0;
}

void
AsyncClient::close()
{
    sock_.close();
    state_ = State::Idle;
}

std::uint32_t
AsyncClient::desiredInterest() const
{
    switch (state_) {
    case State::Connecting:
        return EventLoop::kWrite;
    case State::Connected:
        return EventLoop::kRead |
               (queuedBytes() > 0 ? EventLoop::kWrite : 0u);
    case State::Idle:
    case State::Closed:
        break;
    }
    return 0;
}

void
AsyncClient::send(std::vector<std::uint8_t> bytes)
{
    if (state_ == State::Connecting || state_ == State::Connected)
        sock_.queue(std::move(bytes));
}

void
AsyncClient::send(SharedBytes bytes)
{
    if (state_ == State::Connecting || state_ == State::Connected)
        sock_.queue(std::move(bytes));
}

void
AsyncClient::transportClosed(const std::string &reason)
{
    error_ = reason;
    sock_.close();
    state_ = State::Closed;
    if (onClosed)
        onClosed(reason);
}

bool
AsyncClient::flushSome()
{
    std::uint64_t sent = 0;
    if (sock_.flush(&sent))
        return true;
    transportClosed(errnoString("send"));
    return false;
}

bool
AsyncClient::readSome()
{
    Frame frame;
    std::string err;
    std::uint64_t received = 0;
    for (;;) {
        const FramedSocket::Read r = sock_.next(&frame, &err, &received);
        if (r == FramedSocket::Read::Drained)
            return true;
        if (r != FramedSocket::Read::Frame) {
            transportClosed(FramedSocket::endReason(r, err));
            return false;
        }
        if (onFrame)
            onFrame(std::move(frame));
        // A callback may have close()d us.
        if (state_ != State::Connected)
            return false;
    }
}

void
AsyncClient::handleReady(const EventLoop::Ready &ev)
{
    if (sock_.fd < 0)
        return;

    if (state_ == State::Connecting) {
        // Connect completion is reported as writability; failure as
        // error/hangup or a nonzero SO_ERROR.
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        if (::getsockopt(sock_.fd, SOL_SOCKET, SO_ERROR, &soerr, &len) !=
            0)
            soerr = errno;
        if (ev.error || soerr != 0) {
            transportClosed(std::string("connect: ") +
                            std::strerror(soerr ? soerr : ECONNRESET));
            return;
        }
        if (!ev.writable && !ev.hangup)
            return; // spurious wakeup; still connecting
        state_ = State::Connected;
        if (onConnected)
            onConnected();
        if (state_ != State::Connected)
            return; // callback closed us
        if (!flushSome())
            return;
        // Fall through: the same wakeup may carry readability.
    }

    if (state_ != State::Connected)
        return;

    if (ev.error) {
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        ::getsockopt(sock_.fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
        transportClosed(std::string("socket error: ") +
                        std::strerror(soerr ? soerr : EIO));
        return;
    }
    if (ev.writable && !flushSome())
        return;
    if (ev.readable || ev.hangup)
        readSome();
}

} // namespace sap
