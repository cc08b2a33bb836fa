#include "net/event_loop.hh"

#include <unistd.h>

namespace sap {

namespace {

std::uint32_t
toEpollMask(std::uint32_t interest)
{
    std::uint32_t mask = 0;
    if (interest & EventLoop::kRead)
        mask |= EPOLLIN;
    if (interest & EventLoop::kWrite)
        mask |= EPOLLOUT;
    return mask;
}

} // namespace

EventLoop::EventLoop()
{
    epfd_ = ::epoll_create1(0);
}

EventLoop::~EventLoop()
{
    if (epfd_ >= 0)
        ::close(epfd_);
}

bool
EventLoop::valid() const
{
    return epfd_ >= 0;
}

bool
EventLoop::set(int fd, std::uint32_t interest, std::uint64_t key)
{
    if (interest == 0) {
        remove(fd);
        return true;
    }
    struct epoll_event ev;
    ev.events = toEpollMask(interest);
    ev.data.u64 = key;
    auto it = entries_.find(fd);
    if (it == entries_.end()) {
        if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0)
            return false;
        entries_[fd] = {interest, key};
        return true;
    }
    if (it->second.interest == interest && it->second.key == key)
        return true;
    if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0)
        return false;
    it->second = {interest, key};
    return true;
}

void
EventLoop::remove(int fd)
{
    auto it = entries_.find(fd);
    if (it == entries_.end())
        return;
    // Failure (EBADF after a racing close) only means the kernel
    // already forgot the fd; forget it here too either way.
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    entries_.erase(it);
}

bool
EventLoop::watched(int fd) const
{
    return entries_.count(fd) != 0;
}

int
EventLoop::wait(int timeout_ms)
{
    ready_.clear();
    if (entries_.empty() && timeout_ms < 0)
        return 0; // nothing can ever become ready
    events_.resize(entries_.empty() ? 1 : entries_.size());
    int n = ::epoll_wait(epfd_, events_.data(),
                         static_cast<int>(events_.size()), timeout_ms);
    if (n <= 0)
        return 0; // timeout, or EINTR — the caller re-waits
    ready_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        Ready r;
        r.key = events_[i].data.u64;
        r.readable = (events_[i].events & EPOLLIN) != 0;
        r.writable = (events_[i].events & EPOLLOUT) != 0;
        r.error = (events_[i].events & EPOLLERR) != 0;
        r.hangup = (events_[i].events & EPOLLHUP) != 0;
        ready_.push_back(r);
    }
    return n;
}

} // namespace sap
