// Single-threaded load generator over real loopback sockets.
//
// One generator drives at most `conns` client connections from the calling
// thread. Two phase shapes:
//   * open loop — Poisson arrivals at a fixed rate; each request is timed from
//     its SCHEDULED arrival, so a stall in the system under test is charged to
//     every request it delays (no coordinated omission). How late the
//     generator itself took each arrival off the schedule is recorded too;
//   * saturating — every connection keeps a fixed window of requests in
//     flight (closed loop) and correct responses are counted per interval.
//
// Every response is checked: memcached by opaque, key echo and value;
// RESP and memcached workloads with writes by (key, version) — a read must
// return a version no older than the last write acknowledged before the read
// was sent; HTTP by status 200 and the exact body. Writes to one key are
// always sent on one connection, so their acknowledgement order is the
// order the backend applied them in.
#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "workload.h"

namespace perfbench {

// What one phase measured. Latencies in nanoseconds.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t completed = 0;         // correct responses
  uint64_t wrong = 0;             // responses that failed a check
  uint64_t transport_errors = 0;  // requests lost to a dead connection
  uint64_t abandoned = 0;         // unanswered when the drain deadline passed
  uint64_t connect_failures = 0;
  uint64_t sets = 0;              // writes among the attempted requests
  double seconds = 0;             // measured wall time
  std::vector<uint64_t> latency_ns;   // open loop: scheduled arrival -> response
  std::vector<uint64_t> lateness_ns;  // open loop: scheduled arrival -> picked up
  // Send -> response, split by whether the request was its connection's first.
  std::vector<uint64_t> first_on_conn_ns;
  std::vector<uint64_t> later_ns;
  uint64_t completed_in_phase = 0;  // correct responses before the phase ended
  uint64_t generator_cpu_ns = 0;
  std::string first_error;

  uint64_t failed() const { return wrong + transport_errors + abandoned + connect_failures; }
};

class Generator {
 public:
  Generator(const WorkloadSpec& spec, uint64_t seed, uint16_t port, size_t conns);
  ~Generator();

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // Runs the given phase for `seconds`, then drains every outstanding request
  // (bounded) so the next phase starts from empty connections.
  PhaseResult RunOpenLoop(double rate, double seconds);
  PhaseResult RunSaturating(uint32_t window, double seconds);

  // Closes every client connection (graceful FIN).
  void CloseAll();

  // Test/trace hooks: keep the first `max_bytes` of request bytes written,
  // and append every response's wire bytes in completion order.
  void CaptureRequests(std::string* sink, size_t max_bytes);
  void LogResponses(std::vector<std::string>* log) { response_log_ = log; }

  // Reads may only be checked against writes this generator sent; a
  // generator aimed straight at one backend (the proxy-overhead baseline)
  // sees other keys' writes and is given read-only traffic instead.
  void set_read_only(bool v) { read_only_ = v; }

 private:
  struct Req {
    uint64_t sched_ns = 0;
    uint64_t sent_ns = 0;
    uint64_t min_version = 0;
    uint64_t version = 0;  // writes: the version written
    uint32_t key = 0;
    uint32_t opaque = 0;
    uint8_t op = kOpGet;
    bool first_on_conn = false;
  };
  struct Conn {
    int fd = -1;
    std::string tx;
    size_t tx_off = 0;
    std::string rx;
    size_t rx_off = 0;
    std::deque<Req> queue;     // assigned, not yet sent
    std::deque<Req> inflight;  // FIFO-correlated protocols
    std::unordered_map<uint32_t, Req> by_opaque;  // memcached
    uint32_t sent_on_conn = 0;
    uint64_t next_connect_ns = 0;  // reconnect backoff after a failed dial
    bool connecting = false;       // handshake in progress
    size_t outstanding() const { return inflight.size() + by_opaque.size(); }
  };

  Req NextRequest(size_t conn_index);
  // Starts a dial; true once the connection can carry requests.
  bool Connect(Conn& c);
  void ConnectFailed(Conn& c, int err);
  void Reset(Conn& c, bool abort);
  void FailConn(Conn& c);
  void SendReady(uint32_t window, uint64_t now);
  void Flush(Conn& c);
  void Poll(uint64_t timeout_ns);
  void Receive(Conn& c);
  void Complete(const Req& req, const Response& rsp, std::string_view wire, uint64_t now);
  bool Check(const Req& req, const Response& rsp, std::string* why) const;
  void MaybeChurn(Conn& c);
  void Drain(uint32_t window);
  bool Idle() const;

  const WorkloadSpec spec_;
  const uint16_t port_;
  std::mt19937_64 rng_;
  std::vector<double> zipf_cdf_;
  std::vector<Conn> conns_;
  size_t rr_ = 0;
  uint32_t next_opaque_ = 1;
  bool read_only_ = false;
  // Per key: highest version written, and highest version acknowledged.
  std::vector<uint64_t> written_;
  std::vector<uint64_t> acked_;

  PhaseResult* cur_ = nullptr;
  bool record_latency_ = false;
  uint64_t phase_end_ns_ = 0;
  std::string* capture_ = nullptr;
  size_t capture_max_ = 0;
  std::vector<std::string>* response_log_ = nullptr;
};

// Sends one read to `port` and waits (bounded) for its correct answer: the
// end of the benchmark's set-up time.
flick::Status ProbeOnce(const WorkloadSpec& spec, uint16_t port);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
