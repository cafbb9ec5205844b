#include "common/socket.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace voltcache::net {

namespace {

[[noreturn]] void throwErrno(const char* what) {
    throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

timeval toTimeval(std::chrono::milliseconds timeout) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    return tv;
}

/// See the header: replies must not wait on the peer's delayed ACK.
void setNoDelay(int fd) noexcept {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in loopbackAddress(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return addr;
}

} // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void Socket::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool Socket::sendAll(std::string_view data) noexcept {
    return sendAll(std::span<const std::string_view>(&data, 1));
}

bool Socket::sendAll(std::span<const std::string_view> parts) noexcept {
    constexpr std::size_t kMaxIov = 16;
    std::size_t next = 0;   // first part not yet fully sent
    std::size_t offset = 0; // bytes of parts[next] already sent
    while (next < parts.size()) {
        iovec iov[kMaxIov];
        std::size_t count = 0;
        for (std::size_t i = next; i < parts.size() && count < kMaxIov; ++i, ++count) {
            const std::size_t skip = i == next ? offset : 0;
            iov[count].iov_base = const_cast<char*>(parts[i].data() + skip);
            iov[count].iov_len = parts[i].size() - skip;
        }
        msghdr message{};
        message.msg_iov = iov;
        message.msg_iovlen = count;
        const ssize_t n = ::sendmsg(fd_, &message, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        auto sent = static_cast<std::size_t>(n);
        while (next < parts.size() && sent >= parts[next].size() - offset) {
            sent -= parts[next].size() - offset;
            offset = 0;
            ++next;
        }
        offset += sent;
    }
    return true;
}

std::size_t Socket::recvAll(std::string& out, std::size_t maxBytes) {
    const std::size_t start = out.size();
    char buffer[4096];
    while (out.size() - start < maxBytes) {
        const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            throwErrno("recv");
        }
        if (n == 0) break;
        out.append(buffer, static_cast<std::size_t>(n));
    }
    return out.size() - start;
}

bool Socket::recvUntil(std::string& out, std::string_view delimiter,
                       std::size_t maxBytes) {
    char buffer[1024];
    while (out.size() < maxBytes) {
        if (out.find(delimiter) != std::string::npos) return true;
        const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            throwErrno("recv");
        }
        if (n == 0) break;
        out.append(buffer, static_cast<std::size_t>(n));
    }
    return out.find(delimiter) != std::string::npos;
}

void Socket::setRecvTimeout(std::chrono::milliseconds timeout) noexcept {
    const timeval tv = toTimeval(timeout);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void Socket::setSendTimeout(std::chrono::milliseconds timeout) noexcept {
    const timeval tv = toTimeval(timeout);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Socket::RecvStatus Socket::recvSome(std::string& out, std::size_t maxBytes) noexcept {
    char buffer[4096];
    const std::size_t want = std::min(maxBytes, sizeof(buffer));
    if (want == 0) return RecvStatus::Data;
    while (true) {
        const ssize_t n = ::recv(fd_, buffer, want, 0);
        if (n > 0) {
            out.append(buffer, static_cast<std::size_t>(n));
            return RecvStatus::Data;
        }
        if (n == 0) return RecvStatus::Eof;
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvStatus::Timeout;
        return RecvStatus::Error;
    }
}

TcpListener::TcpListener(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throwErrno("socket");
    listen_ = Socket(fd);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = loopbackAddress(port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        throwErrno("bind");
    }
    if (::listen(fd, 16) != 0) throwErrno("listen");
    // Recover the actual port for the port==0 (ephemeral) case.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        throwErrno("getsockname");
    }
    port_ = ntohs(bound.sin_port);
}

Socket TcpListener::accept(std::chrono::milliseconds timeout) {
    if (stop_.load(std::memory_order_acquire) || !listen_.valid()) return {};
    pollfd pfd{};
    pfd.fd = listen_.fd();
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (ready <= 0 || stop_.load(std::memory_order_acquire)) return {};
    const int fd = ::accept(listen_.fd(), nullptr, nullptr);
    if (fd < 0) return {};
    setNoDelay(fd);
    return Socket(fd);
}

void TcpListener::requestStop() noexcept { stop_.store(true, std::memory_order_release); }

bool TcpListener::stopping() const noexcept {
    return stop_.load(std::memory_order_acquire);
}

Socket tcpConnect(const std::string& host, std::uint16_t port,
                  std::chrono::milliseconds timeout) {
    if (host != "127.0.0.1" && host != "localhost" && host != "::1") {
        throw std::runtime_error("tcpConnect: only loopback hosts are supported, got '" +
                                 host + "'");
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throwErrno("socket");
    Socket socket(fd);
    socket.setRecvTimeout(timeout);
    socket.setSendTimeout(timeout);
    sockaddr_in addr = loopbackAddress(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        throwErrno("connect");
    }
    setNoDelay(fd);
    return socket;
}

std::string httpGet(const std::string& host, std::uint16_t port, const std::string& path,
                    std::chrono::milliseconds timeout) {
    Socket socket = tcpConnect(host, port, timeout);
    const std::string request = "GET " + path +
                                " HTTP/1.1\r\n"
                                "Host: " +
                                host +
                                "\r\n"
                                "Connection: close\r\n"
                                "\r\n";
    if (!socket.sendAll(request)) throw std::runtime_error("httpGet: send failed");
    std::string response;
    socket.recvAll(response);
    const std::size_t headerEnd = response.find("\r\n\r\n");
    if (headerEnd == std::string::npos) {
        throw std::runtime_error("httpGet: malformed response (no header terminator)");
    }
    const std::size_t statusEnd = response.find("\r\n");
    const std::string statusLine = response.substr(0, statusEnd);
    if (statusLine.find(" 200 ") == std::string::npos) {
        throw std::runtime_error("httpGet " + path + ": " + statusLine);
    }
    return response.substr(headerEnd + 4);
}

} // namespace voltcache::net
