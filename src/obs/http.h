// OpsServer: a dependency-free, localhost-bound HTTP/1.0 endpoint that
// makes the obs/ layer live — metrics, health, status, and traces on
// demand from curl or a Prometheus scraper instead of only at exit.
//
// Scope is deliberately tiny: one blocking accept thread, GET only,
// Connection: close, 127.0.0.1 only (an ops page, not a public
// server). Every route is a Handler — a callback from request query
// string to Response — and the constructor installs the built-ins:
//
//   /metrics   Prometheus text exposition (export.h PrometheusText())
//   /metricsz  the registry as JSON (export.h MetricsJson())
//   /healthz   HealthRegistry::RunAll(); HTTP 200 healthy, 503 not
//   /statusz   process snapshot (uptime, memory, registry census) —
//              serve/ overrides this with the full service view
//   /tracez    TraceSink JSON; ?drain=1 consumes the ring (each event
//              handed out once), ?slow=1 the SlowQueryLog instead
//
// SetHandler replaces or adds routes; Dispatch() is the transport-free
// core (tests call it directly).
#ifndef TINPROV_OBS_HTTP_H_
#define TINPROV_OBS_HTTP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "util/status.h"

namespace tinprov::obs {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Route callback: receives the request's query string (the part after
/// '?', possibly empty) and produces the response. Must be callable
/// from the accept thread at any time between Start() and Stop().
using HttpHandler = std::function<HttpResponse(std::string_view query)>;

class OpsServer {
 public:
  /// Installs the built-in routes listed above.
  OpsServer();
  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;
  ~OpsServer();

  /// Adds or replaces the handler for `path` (e.g. "/statusz").
  void SetHandler(std::string path, HttpHandler handler);

  /// Routes `target` ("/path" or "/path?query") through the handler
  /// table: 404 for unknown paths, the handler's response otherwise.
  /// This is the whole server minus the socket — tests hit it directly.
  HttpResponse Dispatch(std::string_view target) const;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port, see port())
  /// and spawns the accept thread. FailedPrecondition when already
  /// running; Internal on socket errors.
  Status Start(uint16_t port);

  /// Closes the listen socket and joins the accept thread; idempotent.
  void Stop();

  /// The bound port; 0 before a successful Start().
  uint16_t port() const { return port_; }

  bool running() const;

 private:
  void AcceptLoop();
  void HandleConnection(int fd) const;

  mutable std::mutex mu_;
  std::map<std::string, HttpHandler, std::less<>> handlers_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace tinprov::obs

#endif  // TINPROV_OBS_HTTP_H_
