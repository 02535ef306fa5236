#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <strings.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/check.h"

namespace e2e {
namespace {

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  STTR_CHECK(fd >= 0) << "socket: " << std::strerror(errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  STTR_CHECK(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) == 0)
      << "connect: " << std::strerror(errno);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Parses one complete response off the front of `in`. Returns the bytes
/// consumed (0 = incomplete).
size_t TakeResponse(const std::string& in, int* status, std::string* body) {
  const size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) return 0;
  size_t content_length = 0;
  size_t pos = in.find("\r\n");
  *status = std::atoi(in.c_str() + in.find(' ') + 1);
  while (pos < head_end) {
    const size_t next = in.find("\r\n", pos + 2);
    const std::string line = in.substr(pos + 2, next - pos - 2);
    if (line.size() > 15 &&
        ::strncasecmp(line.c_str(), "content-length:", 15) == 0) {
      content_length = std::strtoull(line.c_str() + 15, nullptr, 10);
    }
    pos = next;
  }
  const size_t total = head_end + 4 + content_length;
  if (in.size() < total) return 0;
  body->assign(in, head_end + 4, content_length);
  return total;
}

void ConnectionLoop(int port, const std::vector<HttpRequest>& requests,
                    const std::vector<size_t>& mine,
                    Clock::time_point deadline,
                    std::vector<HttpResult>* results, double* cpu_s) {
  const int fd = ConnectLoopback(port);
  std::string out;
  size_t out_off = 0;
  std::string in;
  char buf[64 * 1024];
  size_t next_send = 0;
  size_t next_recv = 0;
  bool closed = false;
  while (next_recv < mine.size() && !closed) {
    Clock::time_point now = Clock::now();
    if (now >= deadline) break;
    while (next_send < mine.size() &&
           (*results)[mine[next_send]].due <= now) {
      const HttpRequest& r = requests[mine[next_send]];
      out += r.post ? "POST " : "GET ";
      out += r.target;
      out += " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
      (*results)[mine[next_send]].sent = now;
      ++next_send;
    }
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
      } else {
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) closed = true;
        break;
      }
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
    // Sleep until readable, writable (when output is pending) or the next
    // due time, whichever comes first.
    Clock::time_point wake = deadline;
    if (next_send < mine.size()) {
      wake = std::min(wake, (*results)[mine[next_send]].due);
    }
    const int64_t wait_ns = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
               .count());
    pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
               0};
    const timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                      static_cast<long>(wait_ns % 1000000000)};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) closed = true;
      break;
    }
    const Clock::time_point done = Clock::now();
    for (;;) {
      if (next_recv >= next_send) break;
      HttpResult& res = (*results)[mine[next_recv]];
      const size_t used = TakeResponse(in, &res.status, &res.body);
      if (used == 0) break;
      in.erase(0, used);
      res.done = done;
      ++next_recv;
    }
  }
  ::close(fd);
  timespec cpu{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
  *cpu_s = static_cast<double>(cpu.tv_sec) +
           1e-9 * static_cast<double>(cpu.tv_nsec);
}

}  // namespace



std::vector<HttpResult> RunOpenLoop(int port,
                                    const std::vector<HttpRequest>& requests,
                                    size_t connections, double grace_s,
                                    double* client_cpu_s) {
  STTR_CHECK(connections >= 1);
  std::vector<HttpResult> results(requests.size());
  // Start slightly in the future so every connection is open before the
  // first request is due.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  double last_due = 0.0;
  std::vector<std::vector<size_t>> per_conn(connections);
  for (size_t i = 0; i < requests.size(); ++i) {
    results[i].due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(requests[i].due_s));
    last_due = std::max(last_due, requests[i].due_s);
    per_conn[i % connections].push_back(i);
  }
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(last_due + grace_s));
  std::vector<std::thread> threads;
  std::vector<double> cpu(connections, 0.0);
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back(ConnectionLoop, port, std::cref(requests),
                         std::cref(per_conn[c]), deadline, &results, &cpu[c]);
  }
  for (std::thread& t : threads) t.join();
  if (client_cpu_s != nullptr) {
    *client_cpu_s = 0.0;
    for (double c : cpu) *client_cpu_s += c;
  }
  return results;
}

std::vector<double> PoissonArrivals(sttr::Rng& rng, double rate,
                                    size_t count) {
  std::vector<double> at(count);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    at[i] = t;
    t += -std::log(1.0 - rng.Uniform()) / rate;
  }
  return at;
}

}  // namespace e2e
