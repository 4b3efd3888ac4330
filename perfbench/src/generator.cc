#include "generator.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/time_util.h"
#include "thread_cpu.h"

namespace perfbench {
namespace {

using flick::MonotonicNanos;

constexpr uint64_t kDrainTimeoutNs = 2'000'000'000;
constexpr uint64_t kReconnectBackoffNs = 1'000'000;

// Non-blocking loopback connect with Nagle off: -1 on failure, else the fd,
// with *pending set while the handshake is still in progress. A blocking
// connect would stall the whole generator whenever a SYN is retransmitted.
int DialLoopback(uint16_t port, bool* pending) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  *pending = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    *pending = true;
  }
  return fd;
}

// Outcome of a pending connect once its socket polled writable: 0 or errno.
int ConnectError(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    return errno;
  }
  return err;
}

}  // namespace

Generator::Generator(const WorkloadSpec& spec, uint64_t seed, uint16_t port, size_t conns)
    : spec_(spec),
      port_(port),
      rng_(seed),
      conns_(std::max<size_t>(1, conns)),
      written_(spec.keys, 0),
      acked_(spec.keys, 0) {
  // Sleep-until-due must wake on time: the default 50us timer slack would
  // show up as generator lateness.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  if (spec_.zipf_s > 0) {
    zipf_cdf_.resize(spec_.keys);
    double sum = 0;
    for (uint32_t k = 0; k < spec_.keys; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), spec_.zipf_s);
      zipf_cdf_[k] = sum;
    }
    for (double& c : zipf_cdf_) {
      c /= sum;
    }
  }
}

Generator::~Generator() { CloseAll(); }

void Generator::CloseAll() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
  }
}

void Generator::CaptureRequests(std::string* sink, size_t max_bytes) {
  capture_ = sink;
  capture_max_ = max_bytes;
}

Generator::Req Generator::NextRequest(size_t conn_index) {
  Req r;
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  uint32_t key;
  if (!zipf_cdf_.empty()) {
    const double z = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
    key = static_cast<uint32_t>(std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), z) -
                                zipf_cdf_.begin());
    key = std::min(key, spec_.keys - 1);
  } else {
    key = static_cast<uint32_t>(rng_() % spec_.keys);
  }
  if (!read_only_ && u < spec_.set_frac) {
    // Writes to a key always leave from the same connection (see header).
    const uint32_t n = static_cast<uint32_t>(conns_.size());
    key = key - key % n + static_cast<uint32_t>(conn_index);
    if (key >= spec_.keys) {
      key -= n;
    }
    r.op = kOpSet;
    r.version = ++written_[key];
  }
  r.key = key;
  return r;
}

bool Generator::Connect(Conn& c) {
  c.fd = DialLoopback(port_, &c.connecting);
  c.sent_on_conn = 0;
  if (c.fd < 0) {
    ConnectFailed(c, errno);
    return false;
  }
  return !c.connecting;
}

void Generator::ConnectFailed(Conn& c, int err) {
  if (cur_ != nullptr) {
    ++cur_->connect_failures;
    if (cur_->first_error.empty()) {
      cur_->first_error = std::string("connect failed: ") + strerror(err);
    }
  }
  if (c.fd >= 0) {
    ::close(c.fd);
    c.fd = -1;
  }
  c.connecting = false;
  c.next_connect_ns = MonotonicNanos() + kReconnectBackoffNs;
}

void Generator::Reset(Conn& c, bool abort) {
  if (c.fd >= 0) {
    if (abort) {
      // RST instead of FIN: no client-side TIME_WAIT, so connection churn
      // cannot exhaust the ephemeral port range however long it runs.
      linger lg{1, 0};
      setsockopt(c.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
    ::close(c.fd);
    c.fd = -1;
  }
  c.tx.clear();
  c.tx_off = 0;
  c.rx.clear();
  c.rx_off = 0;
  c.sent_on_conn = 0;
  c.next_connect_ns = 0;
  c.connecting = false;
}

void Generator::FailConn(Conn& c) {
  if (cur_ != nullptr) {
    cur_->transport_errors += c.outstanding();
    if (c.outstanding() > 0 && cur_->first_error.empty()) {
      cur_->first_error = "connection lost with requests in flight";
    }
  }
  c.inflight.clear();
  c.by_opaque.clear();
  Reset(c, /*abort=*/true);
}

void Generator::SendReady(uint32_t window, uint64_t now) {
  for (Conn& c : conns_) {
    if (c.queue.empty()) {
      continue;
    }
    if (c.fd < 0 && (now < c.next_connect_ns || !Connect(c))) {
      continue;
    }
    if (c.connecting) {
      continue;
    }
    while (!c.queue.empty() && c.outstanding() < window &&
           (spec_.churn_k == 0 || c.sent_on_conn < spec_.churn_k)) {
      Req r = c.queue.front();
      c.queue.pop_front();
      r.sent_ns = now;
      if (r.op == kOpGet) {
        r.min_version = read_only_ ? 0 : acked_[r.key];
      }
      r.first_on_conn = c.sent_on_conn == 0;
      ++c.sent_on_conn;
      const size_t before = c.tx.size();
      if (spec_.proto == Proto::kMemcached) {
        r.opaque = next_opaque_++;
        EncodeRequest(spec_.proto, r.op, r.key, r.version, r.opaque, &c.tx);
        c.by_opaque.emplace(r.opaque, r);
      } else {
        EncodeRequest(spec_.proto, r.op, r.key, r.version, 0, &c.tx);
        c.inflight.push_back(r);
      }
      if (capture_ != nullptr && capture_->size() < capture_max_) {
        capture_->append(c.tx, before, std::string::npos);
      }
    }
    Flush(c);
  }
}

void Generator::Flush(Conn& c) {
  while (c.fd >= 0 && c.tx_off < c.tx.size()) {
    const ssize_t n = ::send(c.fd, c.tx.data() + c.tx_off, c.tx.size() - c.tx_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.tx_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return;
    }
    FailConn(c);
    return;
  }
  if (c.tx_off == c.tx.size()) {
    c.tx.clear();
    c.tx_off = 0;
  }
}

void Generator::Poll(uint64_t timeout_ns) {
  pollfd fds[16];
  Conn* owners[16];
  nfds_t n = 0;
  for (Conn& c : conns_) {
    if (c.fd < 0 || n == 16) {
      continue;
    }
    fds[n].fd = c.fd;
    fds[n].events = static_cast<short>(
        c.connecting ? POLLOUT : POLLIN | (c.tx_off < c.tx.size() ? POLLOUT : 0));
    fds[n].revents = 0;
    owners[n] = &c;
    ++n;
  }
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  if (::ppoll(fds, n, &ts, nullptr) <= 0) {
    return;
  }
  for (nfds_t i = 0; i < n; ++i) {
    Conn& c = *owners[i];
    if (c.connecting) {
      if (fds[i].revents != 0) {
        const int err = ConnectError(c.fd);
        if (err != 0) {
          ConnectFailed(c, err);
        } else {
          c.connecting = false;
        }
      }
      continue;
    }
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      Receive(*owners[i]);
    }
    if ((fds[i].revents & POLLOUT) && owners[i]->fd >= 0) {
      Flush(*owners[i]);
    }
  }
}

void Generator::Receive(Conn& c) {
  char buf[64 * 1024];
  bool closed = false;
  while (c.fd >= 0) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      c.rx.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) {
        break;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      break;
    }
    closed = true;  // EOF or error
    break;
  }
  const uint64_t now = MonotonicNanos();
  while (c.rx_off < c.rx.size()) {
    Response rsp;
    const std::string_view view(c.rx.data() + c.rx_off, c.rx.size() - c.rx_off);
    const int r = DecodeResponse(spec_.proto, view, &rsp);
    if (r == 0) {
      break;
    }
    if (r < 0) {
      if (cur_ != nullptr) {
        ++cur_->wrong;
        if (cur_->first_error.empty()) {
          cur_->first_error = "malformed response frame";
        }
      }
      FailConn(c);
      return;
    }
    const std::string_view wire = view.substr(0, rsp.wire_bytes);
    if (spec_.proto == Proto::kMemcached) {
      const auto it = c.by_opaque.find(rsp.opaque);
      if (it == c.by_opaque.end()) {
        if (cur_ != nullptr) {
          ++cur_->wrong;
          if (cur_->first_error.empty()) {
            cur_->first_error = "response with an unknown opaque";
          }
        }
      } else {
        const Req req = it->second;
        c.by_opaque.erase(it);
        Complete(req, rsp, wire, now);
      }
    } else if (c.inflight.empty()) {
      if (cur_ != nullptr) {
        ++cur_->wrong;
        if (cur_->first_error.empty()) {
          cur_->first_error = "unsolicited response";
        }
      }
    } else {
      const Req req = c.inflight.front();
      c.inflight.pop_front();
      Complete(req, rsp, wire, now);
    }
    c.rx_off += rsp.wire_bytes;
  }
  if (c.rx_off == c.rx.size()) {
    c.rx.clear();
    c.rx_off = 0;
  } else if (c.rx_off > 64 * 1024) {
    c.rx.erase(0, c.rx_off);
    c.rx_off = 0;
  }
  if (closed) {
    FailConn(c);
    return;
  }
  MaybeChurn(c);
}

bool Generator::Check(const Req& req, const Response& rsp, std::string* why) const {
  const auto check_value = [&](std::string_view value) {
    uint32_t key = 0;
    uint64_t version = 0;
    if (!ParseValue(value, &key, &version) || key != req.key) {
      *why = "value names the wrong key: " + std::string(value);
      return false;
    }
    if (version < req.min_version) {
      *why = "stale read of " + KeyName(req.key) + ": version " + std::to_string(version) +
             " after version " + std::to_string(req.min_version) + " was acknowledged";
      return false;
    }
    if (!read_only_ && version > written_[req.key]) {
      *why = "read of " + KeyName(req.key) + " returned a version never written";
      return false;
    }
    return true;
  };
  switch (spec_.proto) {
    case Proto::kMemcached:
      if (rsp.status != 0) {
        *why = "memcached status " + std::to_string(rsp.status);
        return false;
      }
      if (req.op == kOpSet) {
        if (rsp.opcode != 0x01) {
          *why = "SET answered with another opcode";
          return false;
        }
        return true;
      }
      if (rsp.opcode != 0x0c || rsp.key != KeyName(req.key)) {
        *why = "GETK answer does not echo its key";
        return false;
      }
      return check_value(rsp.value);
    case Proto::kResp:
      if (req.op == kOpSet) {
        if (rsp.value != "OK") {
          *why = "SET answered '" + std::string(rsp.value) + "'";
          return false;
        }
        return true;
      }
      return check_value(rsp.value);
    case Proto::kHttp:
      if (rsp.http_status != 200 || rsp.value != HttpBody()) {
        *why = "HTTP status " + std::to_string(rsp.http_status) + " or wrong body";
        return false;
      }
      return true;
  }
  return false;
}

void Generator::Complete(const Req& req, const Response& rsp, std::string_view wire,
                         uint64_t now) {
  if (response_log_ != nullptr) {
    response_log_->emplace_back(wire);
  }
  if (cur_ == nullptr) {
    return;
  }
  std::string why;
  if (!Check(req, rsp, &why)) {
    ++cur_->wrong;
    if (cur_->first_error.empty()) {
      cur_->first_error = why;
    }
    return;
  }
  ++cur_->completed;
  if (req.op == kOpSet && req.version > acked_[req.key]) {
    acked_[req.key] = req.version;
  }
  if (record_latency_) {
    cur_->latency_ns.push_back(now - req.sched_ns);
  }
  (req.first_on_conn ? cur_->first_on_conn_ns : cur_->later_ns).push_back(now - req.sent_ns);
  if (now < phase_end_ns_) {
    ++cur_->completed_in_phase;
  }
}

void Generator::MaybeChurn(Conn& c) {
  if (spec_.churn_k != 0 && c.fd >= 0 && c.sent_on_conn >= spec_.churn_k &&
      c.outstanding() == 0 && c.tx_off == c.tx.size()) {
    Reset(c, /*abort=*/true);
  }
}

bool Generator::Idle() const {
  for (const Conn& c : conns_) {
    if (!c.queue.empty() || c.outstanding() > 0) {
      return false;
    }
  }
  return true;
}

void Generator::Drain(uint32_t window) {
  const uint64_t deadline = MonotonicNanos() + kDrainTimeoutNs;
  while (!Idle()) {
    const uint64_t now = MonotonicNanos();
    if (now >= deadline) {
      break;
    }
    SendReady(window, now);
    Poll(1'000'000);
  }
  for (Conn& c : conns_) {
    const size_t lost = c.queue.size() + c.outstanding();
    if (lost == 0) {
      continue;
    }
    cur_->abandoned += lost;
    if (cur_->first_error.empty()) {
      cur_->first_error = "requests unanswered at the drain deadline";
    }
    c.queue.clear();
    c.inflight.clear();
    c.by_opaque.clear();
    Reset(c, /*abort=*/true);  // late answers must not reach the next phase
  }
}

PhaseResult Generator::RunOpenLoop(double rate, double seconds) {
  PhaseResult res;
  cur_ = &res;
  record_latency_ = true;
  const uint64_t cpu0 = SelfThreadCpuNs();
  std::exponential_distribution<double> gap(rate);
  const uint64_t start = MonotonicNanos();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  phase_end_ns_ = end;
  uint64_t next = start + static_cast<uint64_t>(gap(rng_) * 1e9);
  res.latency_ns.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  res.lateness_ns.reserve(res.latency_ns.capacity());
  while (true) {
    uint64_t now = MonotonicNanos();
    if (now >= end) {
      break;
    }
    while (next <= now) {
      const size_t ci = rr_++ % conns_.size();
      Req r = NextRequest(ci);
      r.sched_ns = next;
      conns_[ci].queue.push_back(r);
      res.lateness_ns.push_back(now - next);
      ++res.attempted;
      res.sets += r.op == kOpSet ? 1 : 0;
      next += static_cast<uint64_t>(gap(rng_) * 1e9);
    }
    SendReady(spec_.open_window, now);
    now = MonotonicNanos();
    const uint64_t due = std::min(next, end);
    const uint64_t wait = due > now ? due - now : 0;
    // Sleep until shortly before the next arrival, then poll without
    // blocking: the wake-up itself would otherwise make the send late.
    Poll(wait > 30'000 ? wait - 20'000 : 0);
  }
  res.seconds = static_cast<double>(end - start) * 1e-9;
  // Requests scheduled inside the phase are timed even when they are answered
  // during the drain: dropping them would hide exactly the slowest ones.
  Drain(spec_.open_window);
  record_latency_ = false;
  res.generator_cpu_ns = SelfThreadCpuNs() - cpu0;
  cur_ = nullptr;
  return res;
}

PhaseResult Generator::RunSaturating(uint32_t window, double seconds) {
  PhaseResult res;
  cur_ = &res;
  const uint64_t cpu0 = SelfThreadCpuNs();
  const uint64_t start = MonotonicNanos();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  phase_end_ns_ = end;
  while (true) {
    const uint64_t now = MonotonicNanos();
    if (now >= end) {
      break;
    }
    for (size_t ci = 0; ci < conns_.size(); ++ci) {
      Conn& c = conns_[ci];
      while (c.queue.size() + c.outstanding() < window) {
        Req r = NextRequest(ci);
        r.sched_ns = now;
        c.queue.push_back(r);
        ++res.attempted;
        res.sets += r.op == kOpSet ? 1 : 0;
      }
    }
    SendReady(window, now);
    Poll(1'000'000);
  }
  res.seconds = static_cast<double>(end - start) * 1e-9;
  Drain(window);
  res.generator_cpu_ns = SelfThreadCpuNs() - cpu0;
  cur_ = nullptr;
  return res;
}

flick::Status ProbeOnce(const WorkloadSpec& spec, uint16_t port) {
  const uint64_t deadline = MonotonicNanos() + 5'000'000'000ULL;
  int fd = -1;
  while (fd < 0) {
    bool pending = false;
    fd = DialLoopback(port, &pending);
    if (fd >= 0 && pending) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 1000);
      if (ConnectError(fd) != 0) {
        ::close(fd);
        fd = -1;
      }
    }
    if (fd < 0 && MonotonicNanos() > deadline) {
      return flick::Unavailable("probe: cannot connect");
    }
  }
  std::string tx;
  EncodeRequest(spec.proto, kOpGet, 0, 0, 1, &tx);
  size_t off = 0;
  std::string rx;
  flick::Status status = flick::Unavailable("probe: no answer before the deadline");
  while (MonotonicNanos() < deadline) {
    if (off < tx.size()) {
      const ssize_t n = ::send(fd, tx.data() + off, tx.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
      }
    }
    pollfd p{fd, POLLIN, 0};
    ::poll(&p, 1, 1);
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      status = flick::Unavailable("probe: connection closed");
      break;
    }
    if (n > 0) {
      rx.append(buf, static_cast<size_t>(n));
    }
    Response rsp;
    const int r = DecodeResponse(spec.proto, rx, &rsp);
    if (r < 0) {
      status = flick::Internal("probe: malformed answer");
      break;
    }
    if (r == 1) {
      const bool ok = spec.proto == Proto::kHttp
                          ? rsp.http_status == 200 && rsp.value == HttpBody()
                          : rsp.status == 0 && rsp.value == ValueFor(0, 0);
      status = ok ? flick::OkStatus() : flick::Internal("probe: wrong answer");
      break;
    }
  }
  ::close(fd);
  return status;
}

}  // namespace perfbench
