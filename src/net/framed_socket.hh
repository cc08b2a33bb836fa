/**
 * @file
 * The byte-moving half of one wire-protocol connection: a
 * non-blocking socket, the FrameDecoder its input feeds, and the
 * output the kernel has not taken yet. The front door's client
 * connections (net/front_door.hh), AsyncClient and NetClient are all
 * built on it, so read-until-EAGAIN and flush-until-EAGAIN exist
 * once.
 *
 * Input: headers and small frames are read through a stack buffer;
 * once a frame's header is in and a buffer's worth of its payload is
 * still owed, recv() writes straight into that frame's payload
 * (FrameDecoder::payloadRoom), so a large frame is copied once, by
 * the kernel.
 *
 * Output: a queue of segments, each either bytes the socket owns (a
 * frame moved in) or read-only bytes it shares with their owner (the
 * gateway's SUBMIT payloads, a client's reused frame buffer), sent
 * in order with one sendmsg() per round. Queueing never copies, and
 * a shared segment is released as soon as its last byte is sent.
 *
 * Thread-safety: NONE; the owner serializes access.
 */

#ifndef SAP_NET_FRAMED_SOCKET_HH
#define SAP_NET_FRAMED_SOCKET_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.hh"

namespace sap {

/** Read-only bytes an output queue shares with their owner. */
using SharedBytes = std::shared_ptr<const std::vector<std::uint8_t>>;

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

    /** One queued piece of output: owned bytes, or shared ones. */
    struct Segment
    {
        std::vector<std::uint8_t> owned;
        SharedBytes shared;

        const std::uint8_t *data() const
        {
            return shared ? shared->data() : owned.data();
        }
        std::size_t size() const
        {
            return shared ? shared->size() : owned.size();
        }
    };

    /** Owned: closed by close() and the destructor. */
    int fd = -1;
    FrameDecoder decoder;
    /** Unsent output, oldest first; none is empty. */
    std::deque<Segment> output;
    /** Bytes of output.front() already sent. */
    std::size_t outoff = 0;

    FramedSocket() = default;
    explicit FramedSocket(int fd_in) : fd(fd_in) {}
    ~FramedSocket() { close(); }

    FramedSocket(const FramedSocket &) = delete;
    FramedSocket &operator=(const FramedSocket &) = delete;

    /** Close the socket and drop both directions' buffered bytes. */
    void close();

    std::size_t queuedBytes() const { return unsent_; }

    /** Queue @p bytes behind the pending output, taking the buffer
     *  over (no copy). */
    void queue(std::vector<std::uint8_t> bytes);

    /** Queue @p bytes behind the pending output without copying
     *  them; the reference is dropped once they are sent (or the
     *  socket is closed), and the owner must not change them until
     *  then. */
    void queue(SharedBytes bytes);

    /**
     * Send queued output until EAGAIN, adding the bytes sent to
     * *@p sent. @return false when the socket died (errno says why).
     */
    bool flush(std::uint64_t *sent);

    /**
     * The next complete frame into *@p out, reading (up to EAGAIN)
     * only while none is buffered; bytes read are added to
     * *@p received. Malformed leaves the reason in *@p err. Headers
     * and small frames are read through a buffer on the calling
     * thread's stack, not in the connection; a large payload is read
     * into itself.
     */
    Read next(Frame *out, std::string *err, std::uint64_t *received);

    /** A client's words for a Read that ended the server's stream
     *  (Eof, Failed with errno still set, or Malformed with @p err). */
    static std::string endReason(Read r, const std::string &err);

  private:
    /** Drop the first @p n bytes of the queue (all sent). */
    void consume(std::size_t n);

    /** Bytes queued and not yet sent. */
    std::size_t unsent_ = 0;
};

} // namespace sap

#endif // SAP_NET_FRAMED_SOCKET_HH
