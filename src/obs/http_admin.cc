#include "obs/http_admin.hh"

#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

#include "base/logging.hh"

namespace sap {

namespace {

/** Hard cap on request-head bytes; beyond it: 431 + close. */
constexpr std::size_t kMaxRequestBytes = 8192;
/** Idle connections are dropped after this many seconds. */
constexpr double kIdleTimeoutSeconds = 10.0;
/** Cap on simultaneously open admin connections. */
constexpr std::size_t kMaxConnections = 32;

/** Target bytes must be printable ASCII — no spaces (token-split
 *  already), no controls, nothing above 0x7e. */
bool
printableTarget(const std::string &s)
{
    for (char c : s) {
        unsigned char u = static_cast<unsigned char>(c);
        if (u <= 0x20 || u > 0x7e)
            return false;
    }
    return !s.empty();
}

/** One header line "Name: value" — syntax only, content ignored. */
bool
validHeaderLine(const std::string &line)
{
    std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0)
        return false;
    for (std::size_t i = 0; i < colon; ++i) {
        unsigned char u = static_cast<unsigned char>(line[i]);
        // RFC 7230 token characters, loosely: printable, no space.
        if (u <= 0x20 || u > 0x7e)
            return false;
    }
    for (std::size_t i = colon + 1; i < line.size(); ++i) {
        unsigned char u = static_cast<unsigned char>(line[i]);
        if ((u < 0x20 && u != '\t') || u == 0x7f)
            return false;
    }
    return true;
}

} // namespace

const char *
httpStatusReason(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 400:
        return "Bad Request";
      case 404:
        return "Not Found";
      case 405:
        return "Method Not Allowed";
      case 431:
        return "Request Header Fields Too Large";
      case 503:
        return "Service Unavailable";
      default:
        return "Unknown";
    }
}

HttpParseResult
parseHttpRequest(const std::string &data, HttpRequest *out)
{
    const std::size_t headEnd = data.find("\r\n\r\n");
    if (headEnd == std::string::npos) {
        // A lone LF-LF is not a valid head, and a head containing a
        // NUL will never become one.
        if (data.find('\0') != std::string::npos)
            return HttpParseResult::Malformed;
        return HttpParseResult::NeedMore;
    }
    const std::string head = data.substr(0, headEnd);

    // Split into CRLF-terminated lines; bare LF or CR is malformed.
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos <= head.size()) {
        std::size_t eol = head.find("\r\n", pos);
        if (eol == std::string::npos) {
            lines.push_back(head.substr(pos));
            break;
        }
        lines.push_back(head.substr(pos, eol - pos));
        pos = eol + 2;
    }
    if (lines.empty() || lines[0].empty())
        return HttpParseResult::Malformed;
    for (const std::string &line : lines)
        if (line.find('\r') != std::string::npos ||
            line.find('\n') != std::string::npos)
            return HttpParseResult::Malformed;

    // Request line: exactly METHOD SP TARGET SP VERSION.
    const std::string &reqline = lines[0];
    std::size_t sp1 = reqline.find(' ');
    std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : reqline.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        reqline.find(' ', sp2 + 1) != std::string::npos)
        return HttpParseResult::Malformed;
    const std::string method = reqline.substr(0, sp1);
    const std::string target = reqline.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string version = reqline.substr(sp2 + 1);

    if (version != "HTTP/1.1" && version != "HTTP/1.0")
        return HttpParseResult::Malformed;
    if (!printableTarget(target) || target[0] != '/')
        return HttpParseResult::Malformed;
    if (method.empty() ||
        method.find_first_not_of(
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ") != std::string::npos)
        return HttpParseResult::Malformed;

    // Header lines: syntax-checked, then ignored (no body is read).
    for (std::size_t i = 1; i < lines.size(); ++i)
        if (!validHeaderLine(lines[i]))
            return HttpParseResult::Malformed;

    if (method != "GET" && method != "HEAD")
        return HttpParseResult::MethodNotAllowed;

    out->method = method;
    const std::size_t qmark = target.find('?');
    out->path = target.substr(0, qmark);
    out->query.clear();
    if (qmark != std::string::npos) {
        std::size_t qpos = qmark + 1;
        while (qpos <= target.size()) {
            std::size_t amp = target.find('&', qpos);
            const std::string pair =
                amp == std::string::npos
                    ? target.substr(qpos)
                    : target.substr(qpos, amp - qpos);
            if (!pair.empty()) {
                std::size_t eq = pair.find('=');
                if (eq == std::string::npos)
                    out->query[pair] = "";
                else
                    out->query[pair.substr(0, eq)] = pair.substr(eq + 1);
            }
            if (amp == std::string::npos)
                break;
            qpos = amp + 1;
        }
    }
    return HttpParseResult::Ok;
}

std::string
renderHttpResponse(const HttpResponse &resp, bool headOnly)
{
    std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                      httpStatusReason(resp.status) + "\r\n";
    out += "Content-Type: " + resp.contentType + "\r\n";
    out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
    out += "Connection: close\r\n";
    for (const auto &[k, v] : resp.extraHeaders)
        out += k + ": " + v + "\r\n";
    out += "\r\n";
    if (!headOnly)
        out += resp.body;
    return out;
}

HttpAdminServer::~HttpAdminServer()
{
    stop();
}

void
HttpAdminServer::addHandler(const std::string &path, Handler handler)
{
    handlers_[path] = std::move(handler);
}

bool
HttpAdminServer::start()
{
    if (running_.load() || stopped_) {
        error_ = "admin server cannot be restarted";
        return false;
    }

    listen_fd_ = listenLoopback(want_port_, 16, &port_, &error_);
    if (listen_fd_ < 0)
        return false;
    if (!wake_.open(&error_)) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }

    stop_requested_.store(false);
    running_.store(true);
    thread_ = std::thread(&HttpAdminServer::serveLoop, this);
    SAP_LOG_INFO("admin server listening on 127.0.0.1:", port_);
    return true;
}

void
HttpAdminServer::stop()
{
    if (!running_.load()) {
        stopped_ = true;
        return;
    }
    stop_requested_.store(true);
    wake_.wake();
    thread_.join();
    running_.store(false);
    stopped_ = true;
    ::close(listen_fd_);
    listen_fd_ = -1;
    wake_.close();
    SAP_LOG_INFO("admin server stopped");
}

HttpResponse
HttpAdminServer::dispatch(const HttpRequest &req)
{
    auto it = handlers_.find(req.path);
    if (it == handlers_.end()) {
        HttpResponse resp;
        resp.status = 404;
        resp.body = "not found: " + req.path + "\n";
        return resp;
    }
    return it->second(req);
}

bool
HttpAdminServer::makeResponse(Conn &conn)
{
    HttpRequest req;
    HttpParseResult parsed = parseHttpRequest(conn.in, &req);
    if (parsed == HttpParseResult::NeedMore) {
        if (conn.in.size() >= kMaxRequestBytes) {
            HttpResponse resp;
            resp.status = 431;
            resp.body = "request too large\n";
            conn.out = renderHttpResponse(resp);
            conn.responding = true;
            requests_served_.fetch_add(1);
        }
        return true;
    }

    HttpResponse resp;
    bool headOnly = false;
    switch (parsed) {
      case HttpParseResult::Ok:
        resp = dispatch(req);
        headOnly = req.method == "HEAD";
        break;
      case HttpParseResult::MethodNotAllowed:
        resp.status = 405;
        resp.body = "only GET and HEAD are served here\n";
        resp.extraHeaders.emplace_back("Allow", "GET, HEAD");
        break;
      default:
        resp.status = 400;
        resp.body = "malformed request\n";
        break;
    }
    conn.out = renderHttpResponse(resp, headOnly);
    conn.responding = true;
    requests_served_.fetch_add(1);
    return true;
}

void
HttpAdminServer::serveLoop()
{
    std::vector<Conn> conns;
    while (!stop_requested_.load()) {
        std::vector<pollfd> pfds;
        pfds.push_back({wake_.readFd(), POLLIN, 0});
        pfds.push_back({listen_fd_, POLLIN, 0});
        for (const Conn &c : conns) {
            short events = c.responding && !c.draining ? POLLOUT
                                                       : POLLIN;
            pfds.push_back({c.fd, events, 0});
        }
        // Connections accepted below are appended past this point
        // and have no pfd entry until the next iteration.
        const std::size_t polled = conns.size();

        int rc = ::poll(pfds.data(),
                        static_cast<nfds_t>(pfds.size()), 250);
        if (rc < 0 && errno != EINTR)
            break;
        const double now = monotonicSeconds();

        if (pfds[0].revents & POLLIN)
            wake_.drain();

        if (pfds[1].revents & POLLIN) {
            for (;;) {
                int fd = ::accept(listen_fd_, nullptr, nullptr);
                if (fd < 0)
                    break;
                if (!setNonBlocking(fd) ||
                    conns.size() >= kMaxConnections) {
                    ::close(fd);
                    continue;
                }
                Conn c;
                c.fd = fd;
                c.idleSince = now;
                conns.push_back(std::move(c));
            }
        }

        // Service the connections that were polled; pfds[i + 2]
        // pairs conns[i] for i < polled only.
        std::vector<std::size_t> dead;
        for (std::size_t i = 0; i < polled; ++i) {
            Conn &c = conns[i];
            const short revents = pfds[i + 2].revents;
            bool drop = false;
            if (revents & (POLLERR | POLLNVAL)) {
                drop = true;
            } else if (c.draining && (revents & (POLLIN | POLLHUP))) {
                // Lingering close: discard whatever the peer still
                // sends; its close (EOF) releases the connection.
                char buf[2048];
                for (;;) {
                    ssize_t n = ::read(c.fd, buf, sizeof(buf));
                    if (n > 0)
                        continue;
                    if (n < 0 &&
                        (errno == EAGAIN || errno == EWOULDBLOCK))
                        break;
                    drop = true; // EOF or error: done
                    break;
                }
            } else if (!c.responding && (revents & (POLLIN | POLLHUP))) {
                char buf[2048];
                for (;;) {
                    ssize_t n = ::read(c.fd, buf, sizeof(buf));
                    if (n > 0) {
                        c.idleSince = now;
                        // Cap the buffered head: bytes beyond the
                        // limit cannot change the (431) outcome.
                        const std::size_t room =
                            kMaxRequestBytes > c.in.size()
                                ? kMaxRequestBytes - c.in.size()
                                : 0;
                        c.in.append(
                            buf, std::min<std::size_t>(
                                     static_cast<std::size_t>(n), room));
                        if (room == 0)
                            break;
                        continue;
                    }
                    if (n == 0) {
                        // EOF before a full head: nothing to answer.
                        if (!c.responding)
                            drop = true;
                        break;
                    }
                    if (errno == EAGAIN || errno == EWOULDBLOCK)
                        break;
                    drop = true;
                    break;
                }
                if (!drop)
                    makeResponse(c);
            }
            if (!drop && c.responding && !c.draining &&
                !c.out.empty()) {
                while (c.outoff < c.out.size()) {
                    ssize_t n = ::write(c.fd, c.out.data() + c.outoff,
                                        c.out.size() - c.outoff);
                    if (n > 0) {
                        c.outoff += static_cast<std::size_t>(n);
                        c.idleSince = now;
                        continue;
                    }
                    if (n < 0 &&
                        (errno == EAGAIN || errno == EWOULDBLOCK))
                        break;
                    drop = true;
                    break;
                }
                if (c.outoff >= c.out.size()) {
                    // Fully answered: half-close and linger until
                    // the peer closes, so the response survives any
                    // unread request bytes (no RST).
                    ::shutdown(c.fd, SHUT_WR);
                    c.draining = true;
                }
            }
            if (!drop && now - c.idleSince > kIdleTimeoutSeconds)
                drop = true;
            if (drop)
                dead.push_back(i);
        }
        for (std::size_t k = dead.size(); k-- > 0;) {
            ::close(conns[dead[k]].fd);
            conns.erase(conns.begin() +
                        static_cast<std::ptrdiff_t>(dead[k]));
        }
    }
    for (Conn &c : conns)
        ::close(c.fd);
}

} // namespace sap
