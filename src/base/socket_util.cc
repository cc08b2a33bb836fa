#include "base/socket_util.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace sap {

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string
errnoString(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

int
listenLoopback(std::uint16_t port, int backlog, std::uint16_t *bound_port,
               std::string *error)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        *error = errnoString("socket");
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, backlog) != 0 || !setNonBlocking(fd) ||
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) !=
            0) {
        *error = errnoString("bind/listen");
        ::close(fd);
        return -1;
    }
    *bound_port = ntohs(addr.sin_port);
    return fd;
}

int
connectTcp(const std::string &host, std::uint16_t port, bool *pending,
           std::string *error)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    const std::string node = host == "localhost" ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, node.c_str(), &addr.sin_addr) != 1) {
        *error = "unparseable IPv4 address '" + host + "'";
        return -1;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) {
        *error = errnoString("socket");
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Loopback connects can complete synchronously.
    *pending =
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0;
    if (*pending && errno != EINPROGRESS) {
        *error = errnoString("connect");
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
WakePipe::open(std::string *error)
{
    if (::pipe(fds_) != 0 || !setNonBlocking(fds_[0]) ||
        !setNonBlocking(fds_[1])) {
        *error = errnoString("pipe");
        close();
        return false;
    }
    return true;
}

void
WakePipe::close()
{
    for (int &fd : fds_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
}

void
WakePipe::wake()
{
    std::uint8_t byte = 1;
    [[maybe_unused]] ssize_t n = ::write(fds_[1], &byte, 1);
}

void
WakePipe::drain()
{
    std::uint8_t buf[256];
    while (::read(fds_[0], buf, sizeof(buf)) > 0) {
    }
}

} // namespace sap
