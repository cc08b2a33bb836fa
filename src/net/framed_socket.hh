/**
 * @file
 * The byte-moving half of one wire-protocol connection: a
 * non-blocking socket, the FrameDecoder its input feeds, and the
 * output the kernel has not taken yet. The front door's client
 * connections (net/front_door.hh) and AsyncClient are both built on
 * it, so read-until-EAGAIN and flush-until-EAGAIN exist once.
 *
 * Thread-safety: NONE; the owner serializes access.
 */

#ifndef SAP_NET_FRAMED_SOCKET_HH
#define SAP_NET_FRAMED_SOCKET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hh"

namespace sap {

struct FramedSocket
{
    /** Why next() returned. */
    enum class Read
    {
        Frame,     ///< *out holds a complete frame
        Drained,   ///< EAGAIN: nothing more to read right now
        Eof,       ///< the peer finished writing
        Failed,    ///< recv() failed; errno says why
        Malformed, ///< frame-level violation; the stream is dead
    };

    /** Owned: closed by close() and the destructor. */
    int fd = -1;
    FrameDecoder decoder;
    std::vector<std::uint8_t> outbuf;
    /** Bytes of outbuf already sent. */
    std::size_t outoff = 0;

    FramedSocket() = default;
    explicit FramedSocket(int fd_in) : fd(fd_in) {}
    ~FramedSocket() { close(); }

    FramedSocket(const FramedSocket &) = delete;
    FramedSocket &operator=(const FramedSocket &) = delete;

    /** Close the socket and drop both directions' buffered bytes. */
    void close();

    std::size_t queuedBytes() const { return outbuf.size() - outoff; }

    /** Append @p bytes to the output, adopting the buffer when
     *  nothing is queued (the common case: no copy). */
    void queue(std::vector<std::uint8_t> bytes);

    /**
     * Send queued output until EAGAIN, adding the bytes sent to
     * *@p sent. @return false when the socket died (errno says why).
     */
    bool flush(std::uint64_t *sent);

    /**
     * The next complete frame into *@p out, reading (up to EAGAIN)
     * only while none is buffered; bytes read are added to
     * *@p received. Malformed leaves the reason in *@p err. The read
     * buffer lives on the calling thread's stack, not in the
     * connection.
     */
    Read next(Frame *out, std::string *err, std::uint64_t *received);

    /** A client's words for a Read that ended the server's stream
     *  (Eof, Failed with errno still set, or Malformed with @p err). */
    static std::string endReason(Read r, const std::string &err);
};

} // namespace sap

#endif // SAP_NET_FRAMED_SOCKET_HH
