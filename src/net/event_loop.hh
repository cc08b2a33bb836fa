/**
 * @file
 * Level-triggered socket readiness multiplexer: the reusable IO core
 * under the net/ front door (net/front_door.hh) and the async client
 * mode.
 *
 * A C10K front door cannot afford poll()'s per-call O(watched fds)
 * kernel copy: with ten thousand mostly-idle connections, every
 * wakeup would stream the whole interest set into the kernel to
 * learn that three sockets are ready. EventLoop keeps the interest
 * set *in* the kernel (epoll; net/ is Linux-only) so one wait()
 * costs O(ready fds).
 *
 * Semantics:
 *
 *  - level-triggered only: a readable fd stays readable until
 *    drained, so a handler that reads partially is re-woken — no
 *    edge-triggered starvation bugs;
 *  - an fd is watched with an interest mask (kRead | kWrite) and an
 *    opaque 64-bit key the owner uses to find its connection state;
 *    interest 0 unwatches (important under epoll, which would
 *    otherwise still report HUP/ERR for a registered fd and spin a
 *    loop that wants to ignore a half-dead socket);
 *  - error/hangup readiness is always delivered for watched fds,
 *    whatever the mask, exactly as the kernel does.
 *
 * Thread-safety: NONE. An EventLoop belongs to the one thread that
 * wait()s on it; cross-thread wakeups go through a self-pipe
 * watched like any other fd (see net/front_door.cc).
 */

#ifndef SAP_NET_EVENT_LOOP_HH
#define SAP_NET_EVENT_LOOP_HH

#include <cstdint>
#include <map>
#include <vector>

#include <sys/epoll.h>

namespace sap {

/** Level-triggered readiness multiplexer (see file comment). */
class EventLoop
{
  public:
    /** Interest bits for set(). */
    static constexpr std::uint32_t kRead = 1u << 0;
    static constexpr std::uint32_t kWrite = 1u << 1;

    /** One ready fd, as reported by wait(). */
    struct Ready
    {
        /** The key the fd was watched with. */
        std::uint64_t key = 0;
        bool readable = false;
        bool writable = false;
        /** EPOLLERR: close the fd. */
        bool error = false;
        /** Peer hung up; level-triggered reads will drain to EOF. */
        bool hangup = false;
    };

    EventLoop();
    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** False when the kernel multiplexer could not be created
     *  (epoll_create failure). */
    bool valid() const;

    /**
     * Watch @p fd with @p interest (kRead|kWrite), reporting it as
     * @p key. Re-setting an already-watched fd updates its mask and
     * key; interest 0 unwatches it entirely.
     * @return false if the kernel rejected the fd.
     */
    bool set(int fd, std::uint32_t interest, std::uint64_t key);

    /** Stop watching @p fd (harmless if not watched). Call *before*
     *  closing the fd, or epoll cannot deregister it. */
    void remove(int fd);

    /** True while @p fd is watched with nonzero interest. */
    bool watched(int fd) const;

    /** Number of watched fds. */
    std::size_t watchCount() const { return entries_.size(); }

    /**
     * Block up to @p timeout_ms (-1 = forever) for readiness; the
     * results land in ready(). @return the number of ready fds; 0 on
     * timeout or EINTR (ready() is empty in both cases).
     */
    int wait(int timeout_ms);

    /** The fds the last wait() reported ready. */
    const std::vector<Ready> &ready() const { return ready_; }

  private:
    struct Entry
    {
        std::uint32_t interest = 0;
        std::uint64_t key = 0;
    };

    std::map<int, Entry> entries_;
    std::vector<Ready> ready_;

    int epfd_ = -1;
    std::vector<struct epoll_event> events_;
};

} // namespace sap

#endif // SAP_NET_EVENT_LOOP_HH
