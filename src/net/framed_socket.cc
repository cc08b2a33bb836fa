#include "net/framed_socket.hh"

#include <cerrno>

#include <sys/socket.h>
#include <unistd.h>

#include "base/socket_util.hh"

namespace sap {

void
FramedSocket::close()
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
    decoder = FrameDecoder();
    outbuf.clear();
    outoff = 0;
}

void
FramedSocket::queue(std::vector<std::uint8_t> bytes)
{
    if (outbuf.empty()) {
        outbuf = std::move(bytes);
        outoff = 0;
    } else {
        outbuf.insert(outbuf.end(), bytes.begin(), bytes.end());
    }
}

bool
FramedSocket::flush(std::uint64_t *sent)
{
    while (outoff < outbuf.size()) {
        ssize_t n = ::send(fd, outbuf.data() + outoff,
                           outbuf.size() - outoff, MSG_NOSIGNAL);
        if (n > 0) {
            outoff += static_cast<std::size_t>(n);
            *sent += static_cast<std::uint64_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        return false; // peer is gone
    }
    // Fully flushed: free the buffer, since the next queue() adopts
    // the caller's. Otherwise compact the sent prefix once it
    // dominates, so a long-lived connection does not accumulate dead
    // bytes.
    if (outoff == outbuf.size()) {
        outbuf = std::vector<std::uint8_t>();
        outoff = 0;
    } else if (outoff > (64u << 10) && outoff * 2 > outbuf.size()) {
        outbuf.erase(outbuf.begin(),
                     outbuf.begin() + static_cast<std::ptrdiff_t>(outoff));
        outoff = 0;
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
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            *received += static_cast<std::uint64_t>(n);
            decoder.feed(buf, static_cast<std::size_t>(n));
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
