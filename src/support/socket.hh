/**
 * @file
 * Minimal stream-socket support for the serve subsystem.
 *
 * A Socket is a move-only fd wrapper with the two blocking
 * primitives a framed request/response protocol needs (readSome /
 * writeAll); the free functions create listeners and connections
 * over Unix-domain paths and loopback TCP. The first listen/connect
 * installs a process-wide SIG_IGN for SIGPIPE so a write to a
 * disconnected peer fails with EPIPE instead of killing the
 * process.
 *
 * Errors at creation time (bind, listen, connect) throw SimError
 * naming the endpoint; errors on an established socket are reported
 * by return value (false / <= 0) — the caller reaps the connection
 * and raises its own domain error.
 */

#ifndef ASIM_SUPPORT_SOCKET_HH
#define ASIM_SUPPORT_SOCKET_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace asim {

/** See file comment. Closes the fd on destruction. */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd)
        : fd_(fd)
    {}
    ~Socket() { close(); }

    Socket(Socket &&other) noexcept
        : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    Socket &
    operator=(Socket &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Read up to `n` bytes (blocking, EINTR-retried). @return bytes
     *  read, 0 on orderly EOF, -1 on error */
    long readSome(char *buf, size_t n);

    /** Write all of `data` (EINTR-retried). @return false on any
     *  write error (EPIPE when the peer is gone) */
    bool writeAll(std::string_view data);

    /** Close the fd. Idempotent. */
    void close();

    /** shutdown(2) both directions — unblocks a thread sitting in
     *  readSome() on this socket from another thread. */
    void shutdownBoth();

  private:
    int fd_ = -1;
};

/** Bind + listen on a Unix-domain socket at `path`, replacing a
 *  stale socket file. @throws SimError (with the path) on failure */
Socket listenUnix(const std::string &path);

/** Bind + listen on loopback TCP. @param port 0 picks an ephemeral
 *  port — read it back with localPort(). @throws SimError */
Socket listenTcp(uint16_t port);

/** The local port a TCP listener is bound to. @throws SimError */
uint16_t localPort(const Socket &listener);

/** Accept one connection. An invalid Socket means a transient
 *  failure (EINTR/ECONNABORTED) or a closed listener — poll again
 *  or shut down. */
Socket acceptConnection(Socket &listener);

/** Connect to a Unix-domain socket. @throws SimError */
Socket connectUnix(const std::string &path);

/** Connect to a TCP endpoint (numeric host). @throws SimError */
Socket connectTcp(const std::string &host, uint16_t port);

/** An endpoint string taken apart: a Unix-domain socket path, or a
 *  TCP host and port. */
struct Endpoint
{
    std::string path;  ///< unix socket; empty for tcp
    std::string host;  ///< tcp numeric IPv4 host; empty for unix
    uint16_t port = 0; ///< tcp port (1..65535); 0 for unix
};

/** Parse `unix:<path>`, `tcp:<host>:<port>`, or a bare filesystem
 *  path (treated as unix). @throws SimError on a malformed endpoint */
Endpoint parseEndpoint(const std::string &endpoint);

/** Connect to an endpoint string (see parseEndpoint). @throws
 *  SimError on a malformed endpoint or connection failure */
Socket connectEndpoint(const std::string &endpoint);

/**
 * poll(2) the fds for readability. @return the index of the first
 * readable (or error/hup — the caller's read will surface it) fd,
 * or -1 on timeout. @param timeoutMs -1 waits forever
 */
int pollReadable(const std::vector<int> &fds, int timeoutMs);

/** A self-pipe {read end, write end}: a byte written to the second
 *  wakes a pollReadable() loop watching the first. @throws SimError */
std::pair<Socket, Socket> wakePipe();

} // namespace asim

#endif // ASIM_SUPPORT_SOCKET_HH
