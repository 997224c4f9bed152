#include "obs/http.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "obs/export.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/trace.h"

namespace tinprov::obs {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True when `query` carries `key` as a truthy flag: "key", "key=1",
/// "key=true" among '&'-separated pairs.
bool QueryFlag(std::string_view query, std::string_view key) {
  size_t pos = 0;
  while (pos <= query.size()) {
    const size_t amp = query.find('&', pos);
    const std::string_view pair =
        query.substr(pos, amp == std::string_view::npos ? amp : amp - pos);
    const size_t eq = pair.find('=');
    const std::string_view name =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (name == key) {
      if (eq == std::string_view::npos) return true;
      const std::string_view value = pair.substr(eq + 1);
      return value == "1" || value == "true";
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return false;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Status";
  }
}

}  // namespace

OpsServer::OpsServer() {
  const int64_t start_ns = SteadyNowNs();

  SetHandler("/metrics", [](std::string_view) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = PrometheusText();
    return response;
  });

  SetHandler("/metricsz", [](std::string_view) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = MetricsJson();
    return response;
  });

  SetHandler("/healthz", [](std::string_view) {
    HttpResponse response;
    response.content_type = "application/json";
    bool healthy = true;
    response.body = HealthRegistry::Global().Json(&healthy);
    response.status = healthy ? 200 : 503;
    return response;
  });

  SetHandler("/tracez", [](std::string_view query) {
    HttpResponse response;
    response.content_type = "application/json";
    if (QueryFlag(query, "slow")) {
      response.body = SlowQueryLog::Global().Json();
    } else if (QueryFlag(query, "drain")) {
      response.body = TraceSink::Global().DrainJson();
    } else {
      response.body = TraceSink::Global().ToJson();
    }
    return response;
  });

  // The bare-process status page; serve/ installs a service-aware one
  // on top of this when ProvenanceService::EnableOpsServer wires up.
  SetHandler("/statusz", [start_ns](std::string_view) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"uptime_s\":%.3f,\"memory_bytes\":%.0f,"
                  "\"counters\":%zu,\"gauges\":%zu,\"histograms\":%zu}",
                  static_cast<double>(SteadyNowNs() - start_ns) / 1e9,
                  registry.MemoryBytes(), registry.CounterValues().size(),
                  registry.GaugeValues().size(),
                  registry.HistogramSnapshots().size());
    HttpResponse response;
    response.content_type = "application/json";
    response.body = buf;
    return response;
  });
}

OpsServer::~OpsServer() { Stop(); }

void OpsServer::SetHandler(std::string path, HttpHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[std::move(path)] = std::move(handler);
}

HttpResponse OpsServer::Dispatch(std::string_view target) const {
  const size_t question = target.find('?');
  const std::string_view path = target.substr(0, question);
  const std::string_view query =
      question == std::string_view::npos ? std::string_view{}
                                         : target.substr(question + 1);
  HttpHandler handler;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = handlers_.find(path);
    if (it != handlers_.end()) handler = it->second;
  }
  if (!handler) {
    HttpResponse response;
    response.status = 404;
    response.body = "not found\n";
    return response;
  }
  return handler(query);
}

Status OpsServer::Start(uint16_t port) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return Status::FailedPrecondition("ops server running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("ops server: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::Internal("ops server: bind(127.0.0.1:" +
                            std::to_string(port) + ") failed");
  }
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    return Status::Internal("ops server: listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return Status::Internal("ops server: getsockname() failed");
  }

  std::lock_guard<std::mutex> lock(mu_);
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  running_ = true;
  thread_ = std::thread(&OpsServer::AcceptLoop, this);
  return Status::Ok();
}

void OpsServer::Stop() {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
    fd = listen_fd_;
    listen_fd_ = -1;
  }
  // shutdown() unblocks the accept thread; close() releases the port.
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (thread_.joinable()) thread_.join();
}

bool OpsServer::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void OpsServer::AcceptLoop() {
  for (;;) {
    int fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fd = listen_fd_;
    }
    if (fd < 0) return;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      // Stop() closed the socket underneath us — or a transient error;
      // either way re-check listen_fd_ and bail once it is gone.
      std::lock_guard<std::mutex> lock(mu_);
      if (listen_fd_ < 0) return;
      continue;
    }
    HandleConnection(client);
    ::close(client);
  }
}

void OpsServer::HandleConnection(int fd) const {
  // An ops page request fits in one read; bound it so a stuck client
  // can't pin the accept thread.
  timeval timeout{};
  timeout.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  char buf[4096];
  size_t used = 0;
  while (used < sizeof(buf)) {
    const ssize_t n = ::recv(fd, buf + used, sizeof(buf) - used, 0);
    if (n <= 0) break;
    used += static_cast<size_t>(n);
    if (std::string_view(buf, used).find("\r\n\r\n") !=
        std::string_view::npos) {
      break;
    }
  }

  const std::string_view request(buf, used);
  const size_t line_end = request.find("\r\n");
  const std::string_view line =
      line_end == std::string_view::npos ? request : request.substr(0, line_end);

  HttpResponse response;
  const size_t sp1 = line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    response.status = 400;
    response.body = "bad request\n";
  } else if (line.substr(0, sp1) != "GET") {
    response.status = 405;
    response.body = "GET only\n";
  } else {
    response = Dispatch(line.substr(sp1 + 1, sp2 - sp1 - 1));
  }

  char header[256];
  const int header_len = std::snprintf(
      header, sizeof(header),
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      response.status, ReasonPhrase(response.status),
      response.content_type.c_str(), response.body.size());

  std::string wire(header, static_cast<size_t>(header_len));
  wire += response.body;
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace tinprov::obs
