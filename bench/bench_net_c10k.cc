/**
 * @file
 * PERF: the C10K front door — request latency through the gateway
 * while thousands of idle connections are parked on the same event
 * loop (engineering data, not a paper artifact).
 *
 * This is the reason net/ moved from poll() to epoll: a
 * level-triggered epoll wait costs O(ready), so parked connections
 * are free, while poll() rescans every registered descriptor per
 * wakeup and a mostly-idle descriptor set taxes every hot request.
 * The bench parks 0 / 1,000 / 5,000 idle client connections on a
 * gateway fronting two live backends, then measures sequential
 * submit latency from one hot client at each level. The figure of
 * merit: p99 at 5,000 parked connections within 2x the p99 at zero.
 *
 * Also measured: the accept rate while parking the herd (the
 * front-door cost of a reconnect storm).
 *
 * Emits BENCH_net_c10k.json; google-benchmark timers track the
 * event-loop watch/unwatch primitive underneath it all.
 */

#include "bench/bench_common.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mat/generate.hh"
#include "net/client.hh"
#include "net/event_loop.hh"
#include "net/gateway.hh"
#include "net/server.hh"

namespace sap {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Lift RLIMIT_NOFILE to its hard cap; the herd needs headroom. */
std::size_t
raiseFdLimit()
{
    rlimit lim{};
    if (::getrlimit(RLIMIT_NOFILE, &lim) != 0)
        return 0;
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
    ::getrlimit(RLIMIT_NOFILE, &lim);
    return static_cast<std::size_t>(lim.rlim_cur);
}

/** One parked connection: connected, never speaks. */
int
parkConnection(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

ServeRequest
hotRequest(std::uint64_t seed)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(6, 6, seed),
                                  randomIntVec(6, seed + 1),
                                  randomIntVec(6, seed + 2), 3);
    return req;
}

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0;
    std::sort(sorted.begin(), sorted.end());
    std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

double percentileRatioNote(const std::vector<BenchJsonEntry> &json);

void
print()
{
    printHeader("net_c10k",
                "gateway request latency vs parked connections");

    std::size_t fd_cap = raiseFdLimit();
    // Each parked connection holds one fd here and one in the
    // gateway; leave headroom for backends, clients, and the runtime.
    const std::size_t kHerd[] = {0, 1000, 5000};
    std::size_t max_herd = kHerd[2];
    if (fd_cap > 0 && fd_cap < 2 * max_herd + 256) {
        std::printf("  (fd limit %zu too low; capping herd)\n",
                    fd_cap);
        max_herd = fd_cap > 512 ? (fd_cap - 256) / 2 : 0;
    }

    NetServer::Options bopts;
    bopts.cluster.shards = 2;
    bopts.cluster.threadsPerShard = 2;
    NetServer a(bopts), b(bopts);
    SAP_ASSERT(a.start() && b.start(), "backend start failed");

    Gateway::Options gopts;
    gopts.backends = {{"127.0.0.1", a.port(), 0},
                      {"127.0.0.1", b.port(), 0}};
    Gateway gw(gopts);
    SAP_ASSERT(gw.start(), "gateway start failed");
    while (gw.routableBackends() != 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    // The hot subset: 64 live client connections driven round-robin
    // from one thread (the acceptance axis is connection count on
    // the event loop, not driver parallelism — one CPU hosts this
    // whole installation).
    const std::size_t kHot = 64;
    std::vector<std::unique_ptr<NetClient>> hot;
    for (std::size_t i = 0; i < kHot; ++i) {
        hot.push_back(std::make_unique<NetClient>());
        SAP_ASSERT(hot.back()->connect("127.0.0.1", gw.port()),
                   "hot client connect failed");
    }
    // Warm the plan caches and the route path.
    for (std::size_t i = 0; i < kHot; ++i)
        SAP_ASSERT(hot[i]->submit(hotRequest(77)).transportOk,
                   "warmup submit failed");

    std::vector<BenchJsonEntry> json;
    std::vector<int> parked;
    parked.reserve(max_herd);
    double p99_baseline = 0;

    std::printf("%10s %10s %10s %10s %12s\n", "idle conns",
                "p50 us", "p99 us", "mean us", "req/s");
    for (std::size_t herd : kHerd) {
        if (herd > max_herd)
            break;
        // Park connections up to this level, measuring accept rate.
        double park_wall = 0;
        std::size_t to_add = herd - parked.size();
        if (to_add > 0) {
            auto t0 = std::chrono::steady_clock::now();
            while (parked.size() < herd) {
                int fd = parkConnection(gw.port());
                SAP_ASSERT(fd >= 0, "park connect failed");
                parked.push_back(fd);
                // On a single-CPU host a tight connect loop outruns
                // the accept loop's scheduling quantum; yield every
                // so often so the herd queues instead of shedding
                // SYNs onto kernel retry timers.
                if (parked.size() % 256 == 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
            }
            park_wall = secondsSince(t0);
        }

        const int kRequests = 448; // 7 round-robin laps of the 64
        std::vector<double> micros;
        micros.reserve(kRequests);
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kRequests; ++i) {
            auto r0 = std::chrono::steady_clock::now();
            NetClient::Result r =
                hot[static_cast<std::size_t>(i) % kHot]->submit(
                    hotRequest(77));
            SAP_ASSERT(r.transportOk && r.response.ok,
                       "hot submit failed");
            micros.push_back(secondsSince(r0) * 1e6);
        }
        double wall = secondsSince(t0);
        double p50 = percentile(micros, 0.50);
        double p99 = percentile(micros, 0.99);
        double sum = 0;
        for (double m : micros)
            sum += m;
        double mean = sum / kRequests;
        double rps = kRequests / wall;
        if (herd == 0)
            p99_baseline = p99;
        std::printf("%10zu %10.1f %10.1f %10.1f %12.0f\n", herd, p50,
                    p99, mean, rps);

        BenchJsonEntry entry;
        entry.name = "c10k_latency";
        entry.config = {{"idle_conns", std::to_string(herd)},
                        {"hot_connections", std::to_string(kHot)},
                        {"hot_requests", std::to_string(kRequests)},
                        {"backends", "2"}};
        entry.metrics = {{"p50_micros", p50},
                         {"p99_micros", p99},
                         {"mean_micros", mean},
                         {"req_per_s", rps}};
        if (herd == max_herd || herd == kHerd[2])
            entry.metrics.push_back(
                {"p99_vs_idle0",
                 p99_baseline > 0 ? p99 / p99_baseline : 0});
        if (to_add > 0 && park_wall > 0)
            entry.metrics.push_back(
                {"accept_per_s",
                 static_cast<double>(to_add) / park_wall});
        json.push_back(std::move(entry));
    }
    if (p99_baseline > 0 && !json.empty())
        std::printf("p99 at %zu parked vs 0: %.2fx\n", max_herd,
                    percentileRatioNote(json));

    for (int fd : parked)
        ::close(fd);
    writeBenchJson("net_c10k", json);
}

/** Pull the last entry's p99-over-baseline ratio for the summary
 *  line (0 when the herd was capped away). */
double
percentileRatioNote(const std::vector<BenchJsonEntry> &json)
{
    for (auto it = json.rbegin(); it != json.rend(); ++it)
        for (const auto &m : it->metrics)
            if (m.first == "p99_vs_idle0")
                return m.second;
    return 0;
}

//---------------------------------------------------------------------
// Tracked google-benchmark timers.
//---------------------------------------------------------------------

void
BM_EventLoopWatchUnwatch(benchmark::State &state)
{
    // The primitive under every accept/close: register a descriptor,
    // change its interest, remove it.
    EventLoop loop;
    int fds[2];
    SAP_ASSERT(::pipe(fds) == 0, "pipe failed");
    std::uint64_t key = 1;
    for (auto _ : state) {
        loop.set(fds[0], EventLoop::kRead, key);
        loop.set(fds[0], EventLoop::kRead | EventLoop::kWrite, key);
        loop.remove(fds[0]);
    }
    ::close(fds[0]);
    ::close(fds[1]);
}
BENCHMARK(BM_EventLoopWatchUnwatch);

void
BM_EventLoopWaitIdle(benchmark::State &state)
{
    // One zero-timeout wait over N watched-but-silent descriptors:
    // the per-wakeup scan cost the epoll migration removes.
    const int n = static_cast<int>(state.range(0));
    EventLoop loop;
    std::vector<std::array<int, 2>> pipes(
        static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        SAP_ASSERT(::pipe(pipes[static_cast<std::size_t>(i)].data()) ==
                       0,
                   "pipe failed");
        loop.set(pipes[static_cast<std::size_t>(i)][0],
                 EventLoop::kRead,
                 static_cast<std::uint64_t>(i) + 1);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(loop.wait(0));
    for (auto &p : pipes) {
        loop.remove(p[0]);
        ::close(p[0]);
        ::close(p[1]);
    }
}
BENCHMARK(BM_EventLoopWaitIdle)->Arg(8)->Arg(256);

} // namespace
} // namespace sap

SAP_BENCH_MAIN(sap::print)
