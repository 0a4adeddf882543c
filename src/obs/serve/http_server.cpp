#include "obs/serve/http_server.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/prom.h"
#include "support/str.h"

namespace conair::obs::serve {

namespace {

/** Request size cap: a scrape request line plus a few headers fits in
 *  well under 8 KiB; anything bigger is answered 400 and dropped. */
constexpr size_t kMaxRequestBytes = 8192;

/** Handler pool size: enough to overlap slow readers, small enough
 *  to stay invisible next to the campaign worker pool. */
constexpr unsigned kHandlerThreads = 4;

const char *
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      default: return "Error";
    }
}

void
setIoTimeouts(int fd)
{
    // Bound every read/write so one stalled or malicious client can
    // only ever hold a handler thread briefly.
    timeval tv{};
    tv.tv_sec = 2;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return; // timed out or peer gone; nothing to salvage
        off += size_t(n);
    }
}

void
sendResponse(int fd, int status, const std::string &contentType,
             const std::string &body, bool allowHeader = false)
{
    std::string head = strfmt(
        "HTTP/1.1 %d %s\r\n"
        "Content-Type: %s\r\n"
        "Content-Length: %zu\r\n"
        "Connection: close\r\n",
        status, statusText(status), contentType.c_str(), body.size());
    if (allowHeader)
        head += "Allow: GET\r\n";
    head += "\r\n";
    sendAll(fd, head + body);
}

} // namespace

void
HttpServer::route(const std::string &path, Handler h)
{
    routes_[path] = std::move(h);
}

bool
HttpServer::start(uint16_t port, std::string &err)
{
    if (started_) {
        err = "server already started";
        return false;
    }

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        err = strfmt("socket: %s", std::strerror(errno));
        return false;
    }
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        err = strfmt("bind 127.0.0.1:%u: %s", unsigned(port),
                     std::strerror(errno));
        ::close(fd);
        return false;
    }
    if (::listen(fd, 128) != 0) {
        err = strfmt("listen: %s", std::strerror(errno));
        ::close(fd);
        return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) !=
        0) {
        err = strfmt("getsockname: %s", std::strerror(errno));
        ::close(fd);
        return false;
    }

    listenFd_ = fd;
    port_ = ntohs(addr.sin_port);
    stopping_.store(false, std::memory_order_release);
    started_ = true;

    acceptThread_ = std::thread([this] { acceptLoop(); });
    handlers_.reserve(kHandlerThreads);
    for (unsigned i = 0; i < kHandlerThreads; ++i)
        handlers_.emplace_back([this] { handlerLoop(); });
    return true;
}

void
HttpServer::stop()
{
    if (!started_)
        return;
    stopping_.store(true, std::memory_order_release);
    queueCv_.notify_all();
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (std::thread &t : handlers_)
        if (t.joinable())
            t.join();
    handlers_.clear();
    // Drain connections accepted but never handled.
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        for (int fd : queue_)
            ::close(fd);
        queue_.clear();
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    started_ = false;
}

void
HttpServer::acceptLoop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        pollfd pfd{};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        // The poll timeout is the stop() latency bound.
        int r = ::poll(&pfd, 1, 100);
        if (r <= 0)
            continue;
        int conn = ::accept(listenFd_, nullptr, nullptr);
        if (conn < 0)
            continue;
        setIoTimeouts(conn);
        {
            std::lock_guard<std::mutex> lock(queueMutex_);
            queue_.push_back(conn);
        }
        queueCv_.notify_one();
    }
}

void
HttpServer::handlerLoop()
{
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return !queue_.empty() ||
                       stopping_.load(std::memory_order_acquire);
            });
            if (queue_.empty())
                return; // stopping and drained
            fd = queue_.front();
            queue_.pop_front();
        }
        handleConnection(fd);
        ::close(fd);
    }
}

void
HttpServer::handleConnection(int fd)
{
    // Read until the end of the header block, the size cap, or a
    // transport error/timeout.
    std::string req;
    char buf[2048];
    size_t headerEnd = std::string::npos;
    while (req.size() <= kMaxRequestBytes) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        req.append(buf, size_t(n));
        headerEnd = req.find("\r\n\r\n");
        if (headerEnd == std::string::npos)
            headerEnd = req.find("\n\n");
        if (headerEnd != std::string::npos)
            break;
    }
    if (headerEnd == std::string::npos || req.size() > kMaxRequestBytes) {
        bad_.fetch_add(1, std::memory_order_relaxed);
        sendResponse(fd, 400, "text/plain; charset=utf-8",
                     "bad request\n");
        return;
    }

    // Request line: METHOD SP TARGET SP HTTP/x.y
    size_t eol = req.find_first_of("\r\n");
    std::string line = req.substr(0, eol);
    size_t sp1 = line.find(' ');
    size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                          : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        line.compare(sp2 + 1, 5, "HTTP/") != 0) {
        bad_.fetch_add(1, std::memory_order_relaxed);
        sendResponse(fd, 400, "text/plain; charset=utf-8",
                     "bad request\n");
        return;
    }
    std::string method = line.substr(0, sp1);
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    size_t query = target.find('?');
    if (query != std::string::npos)
        target.resize(query);

    if (method != "GET") {
        methodNotAllowed_.fetch_add(1, std::memory_order_relaxed);
        sendResponse(fd, 405, "text/plain; charset=utf-8",
                     "method not allowed\n", /*allowHeader=*/true);
        return;
    }
    auto it = routes_.find(target);
    if (it == routes_.end()) {
        notFound_.fetch_add(1, std::memory_order_relaxed);
        sendResponse(fd, 404, "text/plain; charset=utf-8",
                     "not found\n");
        return;
    }
    HttpResponse resp = it->second();
    sendResponse(fd, resp.status, resp.contentType, resp.body);
    if (resp.status == 200)
        served_.fetch_add(1, std::memory_order_relaxed);
}

std::string
HttpServer::prometheusCounters() const
{
    std::string out;
    promFamily(out, "conair_http_requests_served", "counter",
               "HTTP requests answered with 200.", requestsServed());
    promFamily(out, "conair_http_bad_requests", "counter",
               "HTTP requests answered with 400 (malformed/oversized).",
               badRequests());
    promFamily(out, "conair_http_not_found", "counter",
               "HTTP requests answered with 404 (unknown path).",
               notFound());
    promFamily(out, "conair_http_method_not_allowed", "counter",
               "HTTP requests answered with 405 (non-GET method).",
               methodNotAllowed());
    return out;
}

std::string
routeTelemetry(HttpServer &server, TelemetryBodies bodies)
{
    server.route("/metrics", [&server, body = std::move(bodies.metrics)] {
        HttpResponse r;
        r.contentType = "text/plain; version=0.0.4; charset=utf-8";
        // The server's own request counters ride along: the telemetry
        // plane monitors itself.
        r.body = body() + server.prometheusCounters();
        return r;
    });
    std::string paths = "/metrics";
    auto json = [&](const char *path, TelemetryBodies::Body body) {
        if (!body)
            return;
        server.route(path, [body = std::move(body)] {
            HttpResponse r;
            r.contentType = "application/json";
            r.body = body() + "\n";
            return r;
        });
        paths += std::string(" ") + path;
    };
    json("/status", std::move(bodies.status));
    json("/coverage", std::move(bodies.coverage));
    json("/profile", std::move(bodies.profile));
    return paths;
}

bool
httpGet(uint16_t port, const std::string &path, int &status,
        std::string &body, std::string &err, int deadlineMs)
{
    // The overall deadline bounds the whole exchange; each socket
    // operation additionally stays under the 2 s per-op cap, clamped
    // to whatever remains.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(deadlineMs);
    auto remainingMs = [&deadline]() -> long long {
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   deadline - Clock::now())
            .count();
    };
    auto armTimeouts = [&](int sock) -> bool {
        long long rem = remainingMs();
        if (rem <= 0)
            return false;
        long long ms = std::min<long long>(rem, 2000);
        timeval tv{};
        tv.tv_sec = time_t(ms / 1000);
        tv.tv_usec = suseconds_t((ms % 1000) * 1000);
        setsockopt(sock, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        setsockopt(sock, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        return true;
    };

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        err = strfmt("socket: %s", std::strerror(errno));
        return false;
    }
    if (!armTimeouts(fd)) {
        err = strfmt("deadline of %d ms exceeded", deadlineMs);
        ::close(fd);
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        err = strfmt("connect 127.0.0.1:%u: %s", unsigned(port),
                     std::strerror(errno));
        ::close(fd);
        return false;
    }
    std::string req = "GET " + path +
                      " HTTP/1.1\r\n"
                      "Host: 127.0.0.1\r\n"
                      "Connection: close\r\n\r\n";
    sendAll(fd, req);

    std::string resp;
    char buf[4096];
    bool timedOut = false;
    for (;;) {
        if (!armTimeouts(fd)) {
            timedOut = true; // overall deadline spent
            break;
        }
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            timedOut = true; // a single read stalled past its cap
            break;
        }
        if (n <= 0)
            break;
        resp.append(buf, size_t(n));
    }
    ::close(fd);

    if (timedOut && resp.empty()) {
        err = strfmt("no response within the %d ms deadline",
                     deadlineMs);
        return false;
    }
    if (resp.compare(0, 5, "HTTP/") != 0) {
        err = "malformed response";
        return false;
    }
    size_t sp = resp.find(' ');
    if (sp == std::string::npos) {
        err = "malformed status line";
        return false;
    }
    status = std::atoi(resp.c_str() + sp + 1);
    size_t headerEnd = resp.find("\r\n\r\n");
    body = headerEnd == std::string::npos
               ? std::string()
               : resp.substr(headerEnd + 4);
    err.clear();
    return true;
}

} // namespace conair::obs::serve
