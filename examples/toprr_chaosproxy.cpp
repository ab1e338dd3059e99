// toprr_chaosproxy: a fault-injecting TCP proxy for chaos testing the
// serving stack.
//
// Sits between a client (e.g. examples/toprr_loadgen.cpp) and a
// toprr_serve instance and misbehaves on purpose: it stalls forwarding
// long enough to trip the server's idle timeout, truncates frames
// mid-flight, fragments writes into tiny chunks, and resets connections
// abruptly. Every fault is drawn from a seeded RNG, so a chaos run is
// reproducible from its command line. The serve-smoke chaos CI phase
// drives loadgen through this proxy and asserts the system degrades
// cleanly: no crashes, no desyncs, no duplicate publishes, and a floor
// on ultimately-completed queries.
//
// For example (one command line):
//   toprr_chaosproxy --port 7081 --upstream_port 7080 --seed 7
//     --reset_prob 0.002 --truncate_prob 0.002 --short_prob 0.05
//     --delay_prob 0.001 --delay_ms 2500
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/flags.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;
void HandleSignal(int) { g_shutdown = 1; }

struct FaultKnobs {
  double reset_prob = 0.0;
  double truncate_prob = 0.0;
  double delay_prob = 0.0;
  int delay_ms = 0;
  double short_prob = 0.0;
};

struct Telemetry {
  std::atomic<uint64_t> connections{0};
  std::atomic<uint64_t> upstream_failures{0};
  std::atomic<uint64_t> resets{0};
  std::atomic<uint64_t> truncations{0};
  std::atomic<uint64_t> delays{0};
  std::atomic<uint64_t> bytes{0};
};

Telemetry g_telemetry;

// Arms linger-0 so the eventual close() aborts the connection (RST
// instead of an orderly FIN) when data is in flight.
void ArmAbort(int fd) {
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
}

// Kills both directions of a relayed connection from inside a relay
// thread. Deliberately shutdown(2), not close(2): the sibling relay
// thread may be blocked in recv on these fds, and closing an fd under a
// blocked reader races with fd reuse. The owner closes exactly once
// after both relays return; ArmAbort makes that close abortive.
void KillConnection(int a, int b) {
  ArmAbort(a);
  ArmAbort(b);
  ::shutdown(a, SHUT_RDWR);
  ::shutdown(b, SHUT_RDWR);
}

bool WriteAll(int fd, const char* data, size_t length) {
  size_t sent = 0;
  while (sent < length) {
    const ssize_t n = ::send(fd, data + sent, length - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Relays src -> dst until EOF/error or an injected fault kills the
// connection. Returns only when this direction is finished; it shuts
// the peer sockets down so the opposite relay unblocks too.
void Relay(int src, int dst, const FaultKnobs& knobs, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  char buffer[16384];
  for (;;) {
    ssize_t n = ::recv(src, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    g_telemetry.bytes.fetch_add(static_cast<uint64_t>(n),
                                std::memory_order_relaxed);
    if (knobs.reset_prob > 0.0 && coin(rng) < knobs.reset_prob) {
      g_telemetry.resets.fetch_add(1, std::memory_order_relaxed);
      KillConnection(src, dst);
      return;
    }
    if (knobs.truncate_prob > 0.0 && coin(rng) < knobs.truncate_prob) {
      // Forward a strict prefix of the chunk, then kill the stream:
      // whatever frame it belonged to arrives truncated.
      g_telemetry.truncations.fetch_add(1, std::memory_order_relaxed);
      WriteAll(dst, buffer, static_cast<size_t>(n) / 2);
      KillConnection(src, dst);
      return;
    }
    if (knobs.delay_prob > 0.0 && knobs.delay_ms > 0 &&
        coin(rng) < knobs.delay_prob) {
      g_telemetry.delays.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(knobs.delay_ms));
    }
    bool ok;
    if (knobs.short_prob > 0.0 && coin(rng) < knobs.short_prob) {
      // Dribble the chunk out in 1..7-byte pieces: every frame-resume
      // path on the receiving side gets exercised.
      ok = true;
      size_t off = 0;
      while (ok && off < static_cast<size_t>(n)) {
        const size_t piece =
            std::min<size_t>(1 + rng() % 7, static_cast<size_t>(n) - off);
        ok = WriteAll(dst, buffer + off, piece);
        off += piece;
      }
    } else {
      ok = WriteAll(dst, buffer, static_cast<size_t>(n));
    }
    if (!ok) break;
  }
  ::shutdown(src, SHUT_RD);
  ::shutdown(dst, SHUT_WR);
}

int DialUpstream(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace toprr;
  FlagParser flags;
  std::string host = "127.0.0.1";
  std::string upstream_host = "127.0.0.1";
  int port = 7081;
  int upstream_port = 7080;
  int64_t seed = 1;
  FaultKnobs knobs;
  bool help = false;
  flags.AddString("host", &host, "listen address");
  flags.AddString("upstream_host", &upstream_host, "forward to this host");
  flags.AddInt("port", &port, "listen port");
  flags.AddInt("upstream_port", &upstream_port, "forward to this port");
  flags.AddInt("seed", &seed, "fault-schedule seed (reproducible runs)");
  flags.AddDouble("reset_prob", &knobs.reset_prob,
                  "per-chunk probability of an abortive RST on both sides");
  flags.AddDouble("truncate_prob", &knobs.truncate_prob,
                  "per-chunk probability of forwarding half a chunk then "
                  "killing the connection");
  flags.AddDouble("delay_prob", &knobs.delay_prob,
                  "per-chunk probability of stalling forwarding");
  flags.AddInt("delay_ms", &knobs.delay_ms,
               "stall duration (set above the server idle timeout to "
               "exercise evictions)");
  flags.AddDouble("short_prob", &knobs.short_prob,
                  "per-chunk probability of dribbling it out in tiny writes");
  flags.AddBool("help", &help, "print usage");
  if (!flags.Parse(&argc, argv)) return 1;
  if (help) {
    std::fputs(flags.HelpString().c_str(), stdout);
    return 0;
  }

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("toprr_chaosproxy: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd, 64) < 0) {
    std::perror("toprr_chaosproxy: bind/listen");
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // SA_RESTART (glibc signal()) would resume a blocked accept after the
  // handler ran; a receive timeout on the listen socket turns the accept
  // loop into a poll of g_shutdown instead.
  struct timeval accept_tick;
  accept_tick.tv_sec = 0;
  accept_tick.tv_usec = 200 * 1000;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_RCVTIMEO, &accept_tick,
               sizeof(accept_tick));
  // The chaos CI phase waits for this exact line before starting load.
  std::printf("toprr_chaosproxy: listening on %s:%d -> %s:%d\n", host.c_str(),
              port, upstream_host.c_str(), upstream_port);
  std::fflush(stdout);

  std::vector<std::thread> workers;
  uint64_t next_connection = 0;
  while (g_shutdown == 0) {
    const int client_fd = ::accept(listen_fd, nullptr, nullptr);
    if (client_fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    ::setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    g_telemetry.connections.fetch_add(1, std::memory_order_relaxed);
    const uint64_t conn_seed =
        static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ull +
        ++next_connection;
    workers.emplace_back([client_fd, conn_seed, knobs, upstream_host,
                          upstream_port] {
      const int server_fd = DialUpstream(upstream_host, upstream_port);
      if (server_fd < 0) {
        // Upstream down (e.g. mid-restart in the chaos schedule): the
        // client sees an immediate abortive close and retries with
        // backoff. Safe to close directly -- no relay thread exists yet.
        g_telemetry.upstream_failures.fetch_add(1, std::memory_order_relaxed);
        ArmAbort(client_fd);
        ::close(client_fd);
        return;
      }
      std::thread reverse(
          [&] { Relay(server_fd, client_fd, knobs, conn_seed ^ 1); });
      Relay(client_fd, server_fd, knobs, conn_seed);
      reverse.join();
      ::close(client_fd);
      ::close(server_fd);
    });
  }
  ::close(listen_fd);
  for (auto& worker : workers) {
    if (worker.joinable()) worker.join();
  }
  std::printf(
      "toprr_chaosproxy: shut down; connections=%llu upstream_failures=%llu "
      "resets=%llu truncations=%llu delays=%llu bytes=%llu\n",
      static_cast<unsigned long long>(g_telemetry.connections.load()),
      static_cast<unsigned long long>(g_telemetry.upstream_failures.load()),
      static_cast<unsigned long long>(g_telemetry.resets.load()),
      static_cast<unsigned long long>(g_telemetry.truncations.load()),
      static_cast<unsigned long long>(g_telemetry.delays.load()),
      static_cast<unsigned long long>(g_telemetry.bytes.load()));
  return 0;
}
