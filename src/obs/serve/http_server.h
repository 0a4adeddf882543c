/**
 * @file
 * A minimal embedded HTTP/1.1 server for live telemetry exposition —
 * no external dependencies, POSIX sockets only.  Built for exactly
 * one job: letting Prometheus scrapers and curl hit `GET /metrics`,
 * `GET /status`, `GET /coverage` and `GET /profile` on a running
 * campaign or a finished run (routeTelemetry() below;
 * docs/OBSERVABILITY.md, "Live telemetry endpoints").
 *
 * Shape: one accept thread polls the listening socket (so stop() can
 * interrupt it without tricks), pushing accepted connections onto a
 * small fixed pool of handler threads.  Requests are GET-only,
 * size-capped, and answered with `Connection: close` — one request
 * per connection, nothing persistent, no interference with the
 * campaign workers beyond the handler threads themselves.
 *
 * The server binds 127.0.0.1 only: telemetry is host-local by design
 * (fronting it with real infrastructure is the conaird daemon's job,
 * see ROADMAP.md).  Port 0 asks the kernel for an ephemeral port;
 * port() reports what was bound.
 *
 * Contract details the tests pin (tests/obs/http_server_test.cpp):
 *  - >= 64 concurrent scrapes all answer 200 with consistent bodies;
 *  - malformed or oversized (> 8 KiB) requests answer 400, non-GET
 *    methods 405, unknown paths 404 — never a crash or a hang;
 *  - stop() joins every thread cleanly, even mid-scrape.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace conair::obs::serve {

/** What a route handler returns. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "text/plain; charset=utf-8";
    std::string body;
};

class HttpServer
{
  public:
    using Handler = std::function<HttpResponse()>;

    HttpServer() = default;
    ~HttpServer() { stop(); }

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Registers @p path (exact match, query string ignored).  Call
     *  before start(). */
    void route(const std::string &path, Handler h);

    /** Binds 127.0.0.1:@p port (0 = ephemeral) and spawns the accept
     *  thread + handler pool.  False (with @p err) on failure. */
    bool start(uint16_t port, std::string &err);

    /** The bound port (after a successful start()). */
    uint16_t port() const { return port_; }

    bool running() const
    {
        return started_ && !stopping_.load(std::memory_order_acquire);
    }

    /** Stops accepting, drains the connection queue, joins every
     *  thread.  Idempotent; also run by the destructor. */
    void stop();

    /** Requests answered with 200. */
    uint64_t requestsServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }

    /** Requests answered with 400 (malformed / oversized). */
    uint64_t badRequests() const
    {
        return bad_.load(std::memory_order_relaxed);
    }

    /** Requests answered with 404 (unknown path). */
    uint64_t notFound() const
    {
        return notFound_.load(std::memory_order_relaxed);
    }

    /** Requests answered with 405 (non-GET method). */
    uint64_t methodNotAllowed() const
    {
        return methodNotAllowed_.load(std::memory_order_relaxed);
    }

    /** The four request counters in Prometheus text exposition
     *  (conair_http_* counters); routeTelemetry() appends them to
     *  /metrics so the telemetry plane monitors itself. */
    std::string prometheusCounters() const;

  private:
    void acceptLoop();
    void handlerLoop();
    void handleConnection(int fd);

    std::map<std::string, Handler> routes_;
    int listenFd_ = -1;
    uint16_t port_ = 0;
    bool started_ = false;
    std::atomic<bool> stopping_{false};
    std::thread acceptThread_;
    std::vector<std::thread> handlers_;

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::deque<int> queue_; ///< accepted fds awaiting a handler

    std::atomic<uint64_t> served_{0};
    std::atomic<uint64_t> bad_{0};
    std::atomic<uint64_t> notFound_{0};
    std::atomic<uint64_t> methodNotAllowed_{0};
};

/** What a telemetry server serves: the Prometheus text of /metrics
 *  and the JSON documents of the other endpoints.  An empty profile
 *  leaves /profile out. */
struct TelemetryBodies
{
    using Body = std::function<std::string()>;
    Body metrics;
    Body status;
    Body coverage;
    Body profile;
};

/**
 * The telemetry endpoint table, written once for every server that
 * exposes one (`bench_explore --serve`, `conair run --serve`).  Routes
 * on @p server, before start():
 *  - GET /metrics, `text/plain; version=0.0.4`: @p bodies.metrics,
 *    then @p server's own conair_http_* counters;
 *  - GET /status, /coverage and (when set) /profile,
 *    `application/json`: each body plus a trailing newline.
 * Returns the routed paths, space-separated, for the caller's banner.
 */
std::string routeTelemetry(HttpServer &server, TelemetryBodies bodies);

/**
 * A tiny blocking HTTP GET against 127.0.0.1:@p port — the client
 * half the server tests and the scrape-guard bench share.  Returns
 * false (with @p err) on connect/transport failure; HTTP error
 * statuses are returned in @p status, not treated as failure.
 *
 * @p deadlineMs bounds the WHOLE call (connect + send + receive): a
 * server that accepts the connection but never answers — or trickles
 * bytes forever — fails the call with a deadline error instead of
 * holding the client indefinitely.  Individual socket operations stay
 * capped at 2 s, clamped down to whatever remains of the deadline.
 */
bool httpGet(uint16_t port, const std::string &path, int &status,
             std::string &body, std::string &err,
             int deadlineMs = 10'000);

} // namespace conair::obs::serve
