// Open-loop HTTP load generator over loopback keep-alive connections.
//
// Every request has a due time fixed before the run. One thread per
// connection sends each request at its due time whether or not earlier
// responses have arrived (HTTP/1.1 pipelining), and reads responses in
// order. Latency is measured from the due time, so a stall in the server
// or in the generator itself is charged to every request it delays.
#ifndef E2EBENCH_LOADGEN_H_
#define E2EBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "util/rng.h"

namespace e2e {

struct HttpRequest {
  /// Offset from the run's start at which the request is due.
  double due_s = 0.0;
  std::string target;  ///< "/recommend?user=..."
  bool post = false;
};

struct HttpResult {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  /// HTTP status; 0 when no response arrived (connection lost, deadline).
  int status = 0;
  std::string body;

  double latency_ms() const { return ToMs(done - due); }
  double lateness_ms() const { return ToMs(sent - due); }
};

/// Sends `requests` over `connections` keep-alive connections to
/// 127.0.0.1:`port`, request i on connection i % connections, and returns
/// one result per request. Requests still unanswered `grace_s` after the
/// last due time are reported with status 0. `client_cpu_s` (optional)
/// receives the CPU time the generator's own threads used.
std::vector<HttpResult> RunOpenLoop(int port,
                                    const std::vector<HttpRequest>& requests,
                                    size_t connections, double grace_s,
                                    double* client_cpu_s = nullptr);

/// `count` Poisson arrival offsets at `rate` per second, starting at 0.
std::vector<double> PoissonArrivals(sttr::Rng& rng, double rate,
                                    size_t count);

}  // namespace e2e

#endif  // E2EBENCH_LOADGEN_H_
