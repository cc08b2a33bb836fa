/**
 * @file
 * POSIX socket helpers shared by the net/ front door (NetServer and
 * Gateway), its clients, and the obs/ admin plane.
 */

#ifndef SAP_BASE_SOCKET_UTIL_HH
#define SAP_BASE_SOCKET_UTIL_HH

#include <cstdint>
#include <string>

namespace sap {

/** Set O_NONBLOCK on @p fd. @return false if fcntl() failed. */
bool setNonBlocking(int fd);

/** "<what>: <strerror(errno)>". */
std::string errnoString(const char *what);

/**
 * Bind a non-blocking TCP listen socket on 127.0.0.1:@p port (0 binds
 * an ephemeral port) with SO_REUSEADDR and @p backlog.
 * @return the fd with *@p bound_port set, or -1 with *@p error set.
 */
int listenLoopback(std::uint16_t port, int backlog,
                   std::uint16_t *bound_port, std::string *error);

/**
 * Start a non-blocking TCP connect to @p host:@p port (an IPv4
 * dotted quad or "localhost") with TCP_NODELAY set. @return the fd —
 * connected, or still connecting when *@p pending — or -1 with
 * *@p error set.
 */
int connectTcp(const std::string &host, std::uint16_t port,
               bool *pending, std::string *error);

/**
 * A non-blocking self-pipe: wake() from any thread makes readFd()
 * readable until the owning loop drain()s it.
 */
class WakePipe
{
  public:
    WakePipe() = default;
    ~WakePipe() { close(); }

    WakePipe(const WakePipe &) = delete;
    WakePipe &operator=(const WakePipe &) = delete;

    /** @return false with *@p error set if the pipe cannot be made. */
    bool open(std::string *error);
    void close();

    int readFd() const { return fds_[0]; }

    /** Best-effort: a full pipe already guarantees a pending wake. */
    void wake();
    void drain();

  private:
    int fds_[2] = {-1, -1};
};

} // namespace sap

#endif // SAP_BASE_SOCKET_UTIL_HH
