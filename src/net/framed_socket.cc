#include "net/framed_socket.hh"

#include <cerrno>

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "base/socket_util.hh"

namespace sap {

namespace {

/** Segments one sendmsg() takes at most (well under IOV_MAX). */
constexpr std::size_t kMaxIov = 64;

} // namespace

void
FramedSocket::close()
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
    decoder = FrameDecoder();
    output.clear();
    outoff = 0;
    unsent_ = 0;
}

void
FramedSocket::queue(std::vector<std::uint8_t> bytes)
{
    if (bytes.empty())
        return;
    unsent_ += bytes.size();
    output.push_back(Segment{std::move(bytes), nullptr});
}

void
FramedSocket::queue(SharedBytes bytes)
{
    if (!bytes || bytes->empty())
        return;
    unsent_ += bytes->size();
    output.push_back(Segment{{}, std::move(bytes)});
}

void
FramedSocket::consume(std::size_t n)
{
    unsent_ -= n;
    while (n > 0) {
        const std::size_t rest = output.front().size() - outoff;
        if (n < rest) {
            outoff += n;
            return;
        }
        n -= rest;
        output.pop_front(); // a shared segment is released here
        outoff = 0;
    }
}

bool
FramedSocket::flush(std::uint64_t *sent)
{
    while (!output.empty()) {
        iovec iov[kMaxIov];
        std::size_t count = 0;
        std::size_t skip = outoff;
        for (auto it = output.begin(); it != output.end() && count < kMaxIov;
             ++it, ++count, skip = 0) {
            iov[count].iov_base =
                const_cast<std::uint8_t *>(it->data()) + skip;
            iov[count].iov_len = it->size() - skip;
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = count;
        const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n > 0) {
            consume(static_cast<std::size_t>(n));
            *sent += static_cast<std::uint64_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        return false; // peer is gone
    }
    return true;
}

FramedSocket::Read
FramedSocket::next(Frame *out, std::string *err, std::uint64_t *received)
{
    std::uint8_t buf[65536];
    for (;;) {
        switch (decoder.next(out, err)) {
        case FrameDecoder::Result::Ok:
            return Read::Frame;
        case FrameDecoder::Result::Malformed:
            return Read::Malformed;
        case FrameDecoder::Result::NeedMore:
            break;
        }
        // A payload that still owes a buffer's worth is received in
        // place; headers and small frames go through buf.
        std::size_t room = sizeof(buf);
        std::uint8_t *const into = decoder.payloadOwed() >= sizeof(buf)
                                       ? decoder.payloadRoom(&room)
                                       : buf;
        const ssize_t n = ::recv(fd, into, room, 0);
        if (n > 0) {
            *received += static_cast<std::uint64_t>(n);
            if (into == buf)
                decoder.feed(buf, static_cast<std::size_t>(n));
            else
                decoder.commitPayload(static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0)
            return Read::Eof;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return Read::Drained;
        if (errno != EINTR)
            return Read::Failed;
    }
}

std::string
FramedSocket::endReason(Read r, const std::string &err)
{
    if (r == Read::Malformed)
        return "malformed server stream: " + err;
    return r == Read::Eof ? "server closed the connection"
                          : errnoString("recv");
}

} // namespace sap
