#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "harness.hpp"

namespace e2e {

namespace {

constexpr double kStallTimeoutS = 120.0;

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

enum class Parse { Incomplete, Done, Malformed };

/// Parses one complete response from the front of `in`. `close` reports
/// whether the server will close the connection after it.
Parse parse_response(const std::string& in, LoadResponse& out, bool& close) {
  const std::size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) return Parse::Incomplete;
  const std::size_t line_end = in.find("\r\n");
  const std::size_t sp = in.find(' ');
  if (in.rfind("HTTP/1.", 0) != 0 || sp == std::string::npos || sp > line_end)
    return Parse::Malformed;
  out.status = std::atoi(in.c_str() + sp + 1);
  long long length = -1;
  close = false;
  for (std::size_t pos = line_end + 2; pos < head_end;) {
    const std::size_t eol = in.find("\r\n", pos);
    const std::size_t colon = in.find(':', pos);
    if (colon != std::string::npos && colon < eol) {
      const std::string name = lower(in.substr(pos, colon - pos));
      std::size_t v = colon + 1;
      while (v < eol && in[v] == ' ') ++v;
      const std::string value = in.substr(v, eol - v);
      if (name == "content-length") length = std::atoll(value.c_str());
      if (name == "connection") close = lower(value) == "close";
      out.headers[name] = value;
    }
    pos = eol + 2;
  }
  if (length < 0) return Parse::Malformed;
  const std::size_t body_at = head_end + 4;
  if (in.size() < body_at + static_cast<std::size_t>(length)) return Parse::Incomplete;
  out.body = in.substr(body_at, static_cast<std::size_t>(length));
  return Parse::Done;
}

struct Conn {
  int fd = -1;
  bool busy = false;
  bool warmup = false;
  int clip = -1;
  std::string out;
  std::size_t off = 0;
  std::string in;
  std::uint64_t sent_ns = 0;
};

}  // namespace

LoadResult run_closed_loop(const LoadConfig& cfg,
                           const std::function<LoadRequest()>& next) {
  LoadResult result;
  std::vector<Conn> conns(static_cast<std::size_t>(std::max(1, cfg.connections)));
  int warm_sent = 0, warm_done = 0, measured_sent = 0;
  bool measuring = false, aborted = false;
  std::uint64_t t0 = 0, last_done = 0, last_progress = now_ns();

  auto close_conn = [](Conn& c) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  };
  auto finish = [&](Conn& c, LoadResponse r) {
    const std::uint64_t done = now_ns();
    r.latency_s = static_cast<double>(done - c.sent_ns) * 1e-9;
    r.warmup = c.warmup;
    r.clip = c.clip;
    if (c.warmup) ++warm_done;
    else last_done = done;
    result.responses.push_back(std::move(r));
    c.busy = false;
    c.in.clear();
    last_progress = done;
  };
  auto fail = [&](Conn& c, const std::string& why) {
    close_conn(c);
    LoadResponse r;
    r.error = why;
    finish(c, std::move(r));
  };
  auto may_send = [&] {
    if (aborted) return false;
    if (!measuring) return warm_sent < cfg.warmup;
    return seconds_since(t0) < cfg.seconds || measured_sent < cfg.min_requests;
  };

  while (true) {
    if (!measuring && warm_done == cfg.warmup) {
      measuring = true;
      t0 = now_ns();
      if (cfg.on_measure_start) cfg.on_measure_start();
    }
    for (Conn& c : conns) {
      if (c.busy || !may_send()) continue;
      if (c.fd < 0) {
        c.fd = connect_loopback(cfg.port);
        if (c.fd < 0) {
          // The daemon stopped accepting: nothing later can succeed.
          LoadResponse r;
          r.warmup = !measuring;
          r.error = "cannot connect";
          result.responses.push_back(std::move(r));
          aborted = true;
          break;
        }
        ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      }
      const LoadRequest req = next();
      c.out = "POST /v1/optimize?mask=pgm HTTP/1.1\r\nHost: 127.0.0.1\r\n"
              "Content-Type: text/plain\r\nX-Request-Id: " + req.id +
              "\r\nContent-Length: " + std::to_string(req.body.size()) +
              "\r\n\r\n" + req.body;
      c.off = 0;
      c.clip = req.clip;
      c.busy = true;
      c.warmup = !measuring;
      c.sent_ns = now_ns();
      ++(measuring ? measured_sent : warm_sent);
    }

    std::vector<pollfd> fds;
    std::vector<Conn*> owners;
    for (Conn& c : conns) {
      if (!c.busy) continue;
      const short events = c.off < c.out.size() ? POLLOUT : POLLIN;
      fds.push_back(pollfd{c.fd, events, 0});
      owners.push_back(&c);
    }
    if (fds.empty()) {
      if (measuring && !may_send()) break;
      if (aborted) break;
      continue;
    }
    const int ready = ::poll(fds.data(), fds.size(), 100);
    if (ready < 0 && errno != EINTR) {
      for (Conn* c : owners) fail(*c, "poll failed");
      break;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Conn& c = *owners[i];
      if (fds[i].revents == 0) continue;
      if ((fds[i].revents & POLLOUT) != 0) {
        const ssize_t n =
            ::send(c.fd, c.out.data() + c.off, c.out.size() - c.off, MSG_NOSIGNAL);
        if (n > 0) {
          c.off += static_cast<std::size_t>(n);
          last_progress = now_ns();
        } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
          fail(c, "send failed");
        }
        continue;
      }
      char buf[65536];
      bool eof = false;
      while (true) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
          last_progress = now_ns();
          continue;
        }
        if (n == 0) eof = true;
        else if (errno == EINTR) continue;
        else if (errno != EAGAIN) eof = true;
        break;
      }
      LoadResponse r;
      bool close = false;
      const Parse p = parse_response(c.in, r, close);
      if (p == Parse::Done) {
        if (close || eof) close_conn(c);
        finish(c, std::move(r));
      } else if (p == Parse::Malformed) {
        fail(c, "malformed response");
      } else if (eof) {
        fail(c, "connection closed mid-response");
      }
    }
    if (seconds_since(last_progress) > kStallTimeoutS) {
      for (Conn& c : conns)
        if (c.busy) fail(c, "no progress for " + std::to_string(kStallTimeoutS) + " s");
      aborted = true;
    }
  }
  for (Conn& c : conns) close_conn(c);
  if (measuring && last_done > t0)
    result.window_s = static_cast<double>(last_done - t0) * 1e-9;
  return result;
}

int http_get_status(int port, const std::string& path) {
  const int fd = connect_loopback(port);
  if (fd < 0) return 0;
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  std::string in;
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) == static_cast<ssize_t>(req.size())) {
    char buf[4096];
    for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;)
      in.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  LoadResponse r;
  bool close = false;
  return parse_response(in, r, close) == Parse::Done ? r.status : 0;
}

}  // namespace e2e
