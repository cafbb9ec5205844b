// Minimal POSIX TCP socket layer — the wire substrate of the live telemetry
// plane (and, later, `voltcache serve`).
//
// Deliberately tiny and dependency-free: an RAII fd wrapper, a loopback
// listener with a poll-based accept that a stop flag can unblock, a blocking
// client connect, and a one-shot HTTP/1.1 GET helper for in-process scrape
// tests and `voltcache top`. Everything binds/connects on 127.0.0.1 only —
// the exporter is a local observability port, not an internet-facing server.
//
// Every connected socket (TcpListener::accept, tcpConnect) has TCP_NODELAY
// set. The serve protocol is request/response: a reply that ends in a
// small segment behind unacknowledged data would otherwise wait for the
// peer's delayed ACK (tens of milliseconds on Linux) under Nagle's
// algorithm. A reply made of several pieces goes out through the
// multi-buffer sendAll as one sendmsg, so NODELAY does not split it into
// extra small segments either.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace voltcache::net {

/// RAII file-descriptor wrapper. Move-only; closes on destruction.
class Socket {
public:
    Socket() = default;
    explicit Socket(int fd) noexcept : fd_(fd) {}
    ~Socket();
    Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Socket& operator=(Socket&& other) noexcept;
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
    [[nodiscard]] int fd() const noexcept { return fd_; }
    void close() noexcept;

    /// Write the whole buffer (retrying short writes, SIGPIPE suppressed).
    /// Returns false if the peer went away.
    bool sendAll(std::string_view data) noexcept;
    /// Write every part, in order, as one gathered stream (sendmsg with an
    /// iovec, retrying short writes). No part is copied.
    bool sendAll(std::span<const std::string_view> parts) noexcept;

    /// Read until EOF or `maxBytes`, appending to `out`. Returns bytes read.
    std::size_t recvAll(std::string& out, std::size_t maxBytes = 1 << 20);

    /// Read until `delimiter` appears in `out` (headers), EOF, or `maxBytes`.
    /// Returns true when the delimiter was seen.
    bool recvUntil(std::string& out, std::string_view delimiter,
                   std::size_t maxBytes = 64 * 1024);

    /// Per-connection kernel timeouts (SO_RCVTIMEO / SO_SNDTIMEO): a recv
    /// past the deadline returns RecvStatus::Timeout instead of blocking
    /// forever, and a send to a peer that stopped draining fails rather than
    /// wedging the writer. Zero disables the timeout.
    void setRecvTimeout(std::chrono::milliseconds timeout) noexcept;
    void setSendTimeout(std::chrono::milliseconds timeout) noexcept;

    /// Outcome of one bounded receive step (recvSome).
    enum class RecvStatus : std::uint8_t {
        Data,     ///< bytes were appended to the buffer
        Eof,      ///< orderly shutdown by the peer
        Timeout,  ///< SO_RCVTIMEO elapsed with nothing to read
        Error,    ///< any other socket error
    };

    /// One bounded recv: append up to `maxBytes` to `out` and classify the
    /// outcome. The building block of the serve protocol's line reader — it
    /// never loops, so the caller owns the request-size and deadline policy.
    RecvStatus recvSome(std::string& out, std::size_t maxBytes = 4096) noexcept;

private:
    int fd_ = -1;
};

/// Loopback TCP listener. Port 0 binds an ephemeral port; port() reports the
/// actual one. accept() polls so a concurrent requestStop() unblocks it.
class TcpListener {
public:
    /// Binds and listens on 127.0.0.1:port. Throws std::runtime_error on
    /// failure (port in use, out of fds, ...).
    explicit TcpListener(std::uint16_t port);
    ~TcpListener() = default;
    TcpListener(const TcpListener&) = delete;
    TcpListener& operator=(const TcpListener&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// Wait up to `timeout` for a connection. Returns an invalid Socket on
    /// timeout or after requestStop().
    [[nodiscard]] Socket accept(std::chrono::milliseconds timeout);

    /// Make subsequent (and in-flight, within one poll period) accept()
    /// calls return an invalid socket. Safe from any thread.
    void requestStop() noexcept;
    [[nodiscard]] bool stopping() const noexcept;

private:
    Socket listen_;
    std::uint16_t port_ = 0;
    std::atomic_bool stop_{false};
};

/// Blocking connect to 127.0.0.1:`port` (host names other than loopback
/// aliases are rejected — the telemetry plane is local-only). Throws on
/// failure.
[[nodiscard]] Socket tcpConnect(const std::string& host, std::uint16_t port,
                                std::chrono::milliseconds timeout);

/// One-shot HTTP/1.1 GET. Returns the response body; throws
/// std::runtime_error on connect failure or a non-200 status line.
[[nodiscard]] std::string httpGet(const std::string& host, std::uint16_t port,
                                  const std::string& path,
                                  std::chrono::milliseconds timeout =
                                      std::chrono::milliseconds(2000));

} // namespace voltcache::net
