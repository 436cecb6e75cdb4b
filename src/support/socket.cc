#include "support/socket.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <mutex>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/logging.hh"
#include "support/text.hh"

namespace asim {

namespace {

/** A write to a disconnected peer must fail with EPIPE, never kill
 *  the process. */
void
ignoreSigpipe()
{
    static std::once_flag once;
    std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

[[noreturn]] void
fail(const std::string &what, const std::string &endpoint)
{
    throw SimError(what + " " + endpoint + ": " +
                   std::strerror(errno));
}

/** The address a numeric IPv4 `host` names. @throws SimError for
 *  anything else */
in_addr
numericHost(const std::string &host)
{
    in_addr addr{};
    if (::inet_pton(AF_INET, host.c_str(), &addr) != 1) {
        throw SimError("tcp endpoints want a numeric IPv4 host, got: " +
                       host);
    }
    return addr;
}

} // namespace

long
Socket::readSome(char *buf, size_t n)
{
    for (;;) {
        ssize_t r = ::read(fd_, buf, n);
        if (r >= 0)
            return static_cast<long>(r);
        if (errno != EINTR)
            return -1;
    }
}

bool
Socket::writeAll(std::string_view data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t w = ::write(fd_, data.data() + off, data.size() - off);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(w);
    }
    return true;
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Socket::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

Socket
listenUnix(const std::string &path)
{
    ignoreSigpipe();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        throw SimError("unix socket path too long (" +
                       std::to_string(path.size()) + " bytes, max " +
                       std::to_string(sizeof(addr.sun_path) - 1) +
                       "): " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fail("cannot create unix socket", path);
    Socket sock(fd);
    ::unlink(path.c_str()); // replace a stale socket file
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fail("cannot bind unix socket", path);
    if (::listen(fd, 64) != 0)
        fail("cannot listen on unix socket", path);
    return sock;
}

Socket
listenTcp(uint16_t port)
{
    ignoreSigpipe();
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fail("cannot create tcp socket", "loopback");
    Socket sock(fd);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fail("cannot bind tcp port", std::to_string(port));
    if (::listen(fd, 64) != 0)
        fail("cannot listen on tcp port", std::to_string(port));
    return sock;
}

uint16_t
localPort(const Socket &listener)
{
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(listener.fd(),
                      reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        fail("cannot read local port of fd",
             std::to_string(listener.fd()));
    return ntohs(addr.sin_port);
}

Socket
acceptConnection(Socket &listener)
{
    int fd = ::accept(listener.fd(), nullptr, nullptr);
    return Socket(fd); // invalid on failure; the caller polls again
}

Socket
connectUnix(const std::string &path)
{
    ignoreSigpipe();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        throw SimError("unix socket path too long (" +
                       std::to_string(path.size()) + " bytes): " +
                       path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fail("cannot create unix socket", path);
    Socket sock(fd);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        fail("cannot connect to unix socket", path);
    return sock;
}

Socket
connectTcp(const std::string &host, uint16_t port)
{
    ignoreSigpipe();
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr = numericHost(host);
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fail("cannot create tcp socket", host);
    Socket sock(fd);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        fail("cannot connect to", host + ":" + std::to_string(port));
    return sock;
}

Endpoint
parseEndpoint(const std::string &endpoint)
{
    if (endpoint.rfind("unix:", 0) == 0)
        return {endpoint.substr(5), "", 0};
    if (endpoint.rfind("tcp:", 0) != 0)
        return {endpoint, "", 0};
    std::string rest = endpoint.substr(4);
    auto colon = rest.rfind(':');
    if (colon == std::string::npos) {
        throw SimError("tcp endpoint wants tcp:<host>:<port>, "
                       "got: " + endpoint);
    }
    auto port = parseInteger(rest.substr(colon + 1), 1, 65535, 10);
    if (!port)
        throw SimError("bad tcp port in endpoint: " + endpoint);
    numericHost(rest.substr(0, colon));
    return {"", rest.substr(0, colon), static_cast<uint16_t>(*port)};
}

Socket
connectEndpoint(const std::string &endpoint)
{
    Endpoint e = parseEndpoint(endpoint);
    return e.port ? connectTcp(e.host, e.port) : connectUnix(e.path);
}

int
pollReadable(const std::vector<int> &fds, int timeoutMs)
{
    std::vector<pollfd> pfds;
    pfds.reserve(fds.size());
    for (int fd : fds)
        pfds.push_back(pollfd{fd, POLLIN, 0});
    int n = ::poll(pfds.data(), pfds.size(), timeoutMs);
    if (n <= 0)
        return -1; // timeout or EINTR: the caller loops
    for (size_t i = 0; i < pfds.size(); ++i) {
        if (pfds[i].revents != 0)
            return static_cast<int>(i);
    }
    return -1;
}

std::pair<Socket, Socket>
wakePipe()
{
    int fds[2];
    if (::pipe(fds) != 0) {
        throw SimError(std::string("cannot create wake pipe: ") +
                       std::strerror(errno));
    }
    return {Socket(fds[0]), Socket(fds[1])};
}

} // namespace asim
