/**
 * @file
 * mdp_served: the long-lived batch-simulation server.
 *
 *   mdp_served                        # line protocol on stdin/stdout
 *   mdp_served --socket /tmp/mdp.sock # same protocol, many clients
 *
 * The protocol (one JSON document per line, see serve/protocol.hh and
 * EXPERIMENTS.md "Running the server") is identical over both
 * transports.  This file is transport only: all queueing, validation,
 * backpressure and evaluation live in serve/server.hh.
 *
 * Shutdown semantics: EOF (stdin mode), SIGTERM/SIGINT, or a
 * {"op":"shutdown"} line all *drain* -- every accepted request still
 * queued is evaluated and its result delivered to its submitter
 * before the process exits 0.  No accepted id is ever lost or
 * answered twice.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "base/args.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

using namespace mdp;

namespace
{

volatile sig_atomic_t g_signal = 0;
int g_sigpipe_write = -1;

void
onSignal(int)
{
    g_signal = 1;
    char b = 1;
    // Wake the poll loop; EAGAIN just means it is already awake.
    [[maybe_unused]] ssize_t n = write(g_sigpipe_write, &b, 1);
}

/**
 * Splits a byte stream into protocol lines with bounded buffering: a
 * line that exceeds kMaxRequestBytes is dropped as it streams in and
 * surfaced as a single oversized token, so a hostile client cannot
 * grow server memory and still gets a structured rejection.
 */
struct LineBuffer
{
    std::string buf;
    bool discarding = false;

    void
    feed(const char *data, size_t n, std::vector<std::string> &lines)
    {
        for (size_t i = 0; i < n; ++i) {
            const char c = data[i];
            if (c == '\n') {
                if (discarding) {
                    lines.push_back(oversizedToken());
                    discarding = false;
                } else {
                    lines.push_back(buf);
                }
                buf.clear();
            } else if (!discarding) {
                buf.push_back(c);
                if (buf.size() > serve::kMaxRequestBytes) {
                    discarding = true;
                    buf.clear();
                }
            }
        }
    }

    /** Flush a trailing un-terminated line (EOF), if any. */
    bool
    finish(std::string &line)
    {
        if (discarding) {
            line = oversizedToken();
            discarding = false;
            buf.clear();
            return true;
        }
        if (buf.empty())
            return false;
        line = buf;
        buf.clear();
        return true;
    }

    /** A line guaranteed to fail validation as oversized_request. */
    static const std::string &
    oversizedToken()
    {
        static const std::string token(serve::kMaxRequestBytes + 1,
                                       'x');
        return token;
    }
};

void
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// ---- stdin/stdout transport ----------------------------------------

int
runStdin(serve::Server &server, int sigpipe_read)
{
    // Workers finishing runs write through this sink, one line at a
    // time, each flushed so the client sees it at once.
    std::mutex out_mtx;
    const serve::Sink emit = [&out_mtx](const serve::Response &r) {
        std::lock_guard<std::mutex> hold(out_mtx);
        std::fwrite(r.line.data(), 1, r.line.size(), stdout);
        std::fflush(stdout);
    };

    LineBuffer lb;
    bool eof = false;
    while (!eof && !g_signal && !server.shutdownRequested()) {
        struct pollfd fds[2] = {{STDIN_FILENO, POLLIN, 0},
                                {sigpipe_read, POLLIN, 0}};
        if (poll(fds, 2, -1) < 0) {
            if (errno == EINTR)
                continue;
            std::perror("mdp_served: poll");
            break;
        }
        if (!(fds[0].revents & (POLLIN | POLLHUP | POLLERR)))
            continue;
        char buf[65536];
        ssize_t n = read(STDIN_FILENO, buf, sizeof(buf));
        if (n <= 0) {
            eof = true;
            break;
        }
        std::vector<std::string> lines;
        lb.feed(buf, static_cast<size_t>(n), lines);
        for (const std::string &line : lines)
            server.handleLine(0, line, emit);
    }
    std::string tail;
    if (eof && lb.finish(tail))
        server.handleLine(0, tail, emit);
    server.drain(emit);
    return 0;
}

// ---- Unix-domain-socket transport ----------------------------------

struct Client
{
    int fd = -1;
    LineBuffer in;
    std::string out;
};

/** Write as much of the client's pending output as the socket takes. */
void
flushClient(Client &c)
{
    while (!c.out.empty()) {
        ssize_t n = send(c.fd, c.out.data(), c.out.size(),
                         MSG_NOSIGNAL);
        if (n <= 0)
            break;
        c.out.erase(0, static_cast<size_t>(n));
    }
}

int
runSocket(serve::Server &server, const std::string &path,
          int sigpipe_read)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "mdp_served: socket path too long: %s\n",
                     path.c_str());
        return 2;
    }
    int lfd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (lfd < 0) {
        std::perror("mdp_served: socket");
        return 2;
    }
    unlink(path.c_str());
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (bind(lfd, reinterpret_cast<sockaddr *>(&addr),
             sizeof(addr)) < 0 ||
        listen(lfd, 64) < 0) {
        std::perror("mdp_served: bind/listen");
        close(lfd);
        return 2;
    }
    setNonBlocking(lfd);
    std::fprintf(stderr, "mdp_served: listening on %s\n",
                 path.c_str());

    std::map<uint64_t, Client> clients;
    uint64_t next_client = 1;

    // The poll loop is blocked inside handleLine while workers finish
    // runs, so the sink queues each line on its submitter and sends
    // what the socket takes now; the loop flushes the rest later.
    std::mutex out_mtx;
    const serve::Sink route = [&clients,
                               &out_mtx](const serve::Response &r) {
        std::lock_guard<std::mutex> hold(out_mtx);
        auto it = clients.find(r.client);
        if (it == clients.end())
            return; // submitter disconnected; drop its line
        it->second.out += r.line;
        flushClient(it->second);
    };

    while (!g_signal && !server.shutdownRequested()) {
        std::vector<struct pollfd> fds;
        std::vector<uint64_t> owner; // fds[i] belongs to owner[i]
        fds.push_back({sigpipe_read, POLLIN, 0});
        owner.push_back(0);
        fds.push_back({lfd, POLLIN, 0});
        owner.push_back(0);
        for (auto &[cid, c] : clients) {
            short events = POLLIN;
            if (!c.out.empty())
                events |= POLLOUT;
            fds.push_back({c.fd, events, 0});
            owner.push_back(cid);
        }

        if (poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            std::perror("mdp_served: poll");
            break;
        }

        if (fds[1].revents & POLLIN) {
            for (;;) {
                int cfd = accept(lfd, nullptr, nullptr);
                if (cfd < 0)
                    break;
                setNonBlocking(cfd);
                Client c;
                c.fd = cfd;
                clients.emplace(next_client++, std::move(c));
            }
        }

        std::vector<uint64_t> closed;
        for (size_t i = 2; i < fds.size(); ++i) {
            const uint64_t cid = owner[i];
            auto it = clients.find(cid);
            if (it == clients.end())
                continue;
            Client &c = it->second;
            if (fds[i].revents & POLLOUT)
                flushClient(c);
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                char buf[65536];
                ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
                if (n == 0 ||
                    (n < 0 && errno != EAGAIN &&
                     errno != EWOULDBLOCK)) {
                    closed.push_back(cid);
                    continue;
                }
                if (n > 0) {
                    std::vector<std::string> lines;
                    c.in.feed(buf, static_cast<size_t>(n), lines);
                    for (const std::string &line : lines)
                        server.handleLine(cid, line, route);
                }
            }
        }
        for (uint64_t cid : closed) {
            auto it = clients.find(cid);
            if (it != clients.end()) {
                close(it->second.fd);
                clients.erase(it);
            }
        }
    }

    // Drain: evaluate everything still queued and deliver each result
    // to its submitter, then flush best-effort before closing.
    server.drain(route);
    for (int attempt = 0; attempt < 200; ++attempt) {
        bool pending = false;
        for (auto &[cid, c] : clients) {
            flushClient(c);
            if (!c.out.empty())
                pending = true;
        }
        if (!pending)
            break;
        struct pollfd idle = {sigpipe_read, 0, 0};
        poll(&idle, 1, 10); // brief backoff, then retry the writes
    }
    for (auto &[cid, c] : clients) {
        shutdown(c.fd, SHUT_WR);
        close(c.fd);
    }
    close(lfd);
    unlink(path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("mdp_served");
    args.addFlag("help", "show this help");
    args.addOption("socket", "",
                   "serve a Unix-domain socket at this path "
                   "(default: line protocol on stdin/stdout)");
    args.addOption("queue-cap", "256",
                   "bounded request-queue capacity (backpressure)");
    args.addOption("jobs", "0",
                   "worker threads for evaluation (0 = MDP_JOBS or "
                   "hardware concurrency)");
    args.addOption("results-dir", "",
                   "write each run's mdp_sim-format JSON report to "
                   "<dir>/<id>.json");
    args.addOption("batch-report", "",
                   "write the batch-level JSON report here on exit");

    if (!args.parse(argc, argv)) {
        std::fprintf(stderr, "%s\n%s", args.error().c_str(),
                     args.usage().c_str());
        return 2;
    }
    if (args.flag("help")) {
        std::printf("%s", args.usage().c_str());
        return 0;
    }

    serve::ServeConfig cfg;
    cfg.queueCapacity =
        static_cast<size_t>(std::max(1L, args.getLong("queue-cap")));
    cfg.jobs = static_cast<unsigned>(std::max(0L, args.getLong("jobs")));
    cfg.resultsDir = args.get("results-dir");
    serve::Server server(cfg);

    const auto t0 = std::chrono::steady_clock::now();

    int sigpipe[2];
    if (pipe(sigpipe) != 0) {
        std::perror("mdp_served: pipe");
        return 2;
    }
    setNonBlocking(sigpipe[0]);
    setNonBlocking(sigpipe[1]);
    g_sigpipe_write = sigpipe[1];

    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    signal(SIGPIPE, SIG_IGN);

    const std::string socket_path = args.get("socket");
    int rc = socket_path.empty()
                 ? runStdin(server, sigpipe[0])
                 : runSocket(server, socket_path, sigpipe[0]);

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    const std::string report_path = args.get("batch-report");
    if (!report_path.empty()) {
        std::FILE *f = std::fopen(report_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "mdp_served: cannot write %s\n",
                         report_path.c_str());
            return 2;
        }
        const std::string doc = server.batchReport(wall).dump(2);
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fclose(f);
    }

    const serve::BatchStats s = server.stats();
    std::fprintf(stderr,
                 "mdp_served: %llu completed, %llu rejected "
                 "(queue_full %llu), %llu trace passes for %llu "
                 "configs (amortization %.2f), %.2fs\n",
                 static_cast<unsigned long long>(s.completed),
                 static_cast<unsigned long long>(s.rejectedFull +
                                                 s.rejectedInvalid),
                 static_cast<unsigned long long>(s.rejectedFull),
                 static_cast<unsigned long long>(s.tracePasses),
                 static_cast<unsigned long long>(s.configsEvaluated),
                 s.amortization(), wall);
    return rc;
}
