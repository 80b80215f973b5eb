// Closed-loop HTTP/1.1 load generator for `ganopc serve` (README.md).
//
// One thread multiplexes a few keep-alive connections with poll(). Each
// connection sends its next request — POST /v1/optimize?mask=pgm — only after
// the previous reply has fully arrived, so a slower daemon receives less load
// (OPC callers wait for each mask). The first `warmup` requests are excluded;
// measurement then runs for a fixed length and the requests still in flight
// at its end are awaited. Two minutes without any progress abort the run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct LoadRequest {
  std::string id;    ///< X-Request-Id
  std::string body;  ///< layout text
  int clip = -1;     ///< caller's tag, echoed on the response
};

struct LoadResponse {
  int status = 0;           ///< HTTP status; 0 = transport failure
  double latency_s = 0.0;   ///< first byte sent -> last byte received
  bool warmup = false;
  int clip = -1;
  std::string body;
  std::map<std::string, std::string> headers;  ///< names lower-cased
  std::string error;        ///< transport failure detail
};

struct LoadConfig {
  int port = 0;
  int connections = 4;
  int warmup = 40;
  double seconds = 10.0;
  int min_requests = 1;  ///< keep measuring until this many were sent
  /// Called once when measurement starts (after the warm-up drained).
  std::function<void()> on_measure_start;
};

struct LoadResult {
  std::vector<LoadResponse> responses;  ///< warm-up ones flagged
  double window_s = 0.0;  ///< measurement start -> last measured reply
};

/// Drives the closed loop; `next` yields the request each free connection
/// sends. Never throws for per-request failures: they come back as status 0.
LoadResult run_closed_loop(const LoadConfig& config,
                           const std::function<LoadRequest()>& next);

/// Blocking GET on 127.0.0.1:port with Connection: close; returns the HTTP
/// status or 0 when the daemon is not accepting yet.
int http_get_status(int port, const std::string& path);

}  // namespace e2e
