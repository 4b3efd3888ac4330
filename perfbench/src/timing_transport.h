// Timing decorator around a flick::Transport, used by the traced run only.
//
// Every Connection/Listener the platform gets through TimingTransport is a
// thin wrapper that forwards to the real kernel object and counts the call,
// its outcome and the nanoseconds spent inside it. The wrappers change no
// bytes and no return values, so a traced run sees the same response stream
// as an untraced one (perfbench_selftest checks exactly that).
//
// PortTap is the zero-overhead variant used by every run: it forwards
// Listen/Connect and hands back the inner objects unwrapped, remembering
// only the last port a Listen bound — Platform::RegisterProgram(0, ...) and
// MemcachedBackend do not report the ephemeral port they got.
#ifndef PERFBENCH_TIMING_TRANSPORT_H_
#define PERFBENCH_TIMING_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "net/transport.h"

namespace perfbench {

// Call counters shared by every wrapper one TimingTransport hands out.
struct NetCounters {
  std::atomic<uint64_t> read_calls{0};    // Read + Readv
  std::atomic<uint64_t> read_empty{0};    // ... that returned 0 bytes (would block)
  std::atomic<uint64_t> write_calls{0};   // Write + Writev
  std::atomic<uint64_t> readready_calls{0};
  std::atomic<uint64_t> io_ns{0};         // time inside all of the above
  std::atomic<uint64_t> connect_failures{0};
};

struct NetSnapshot {
  uint64_t read_calls = 0;
  uint64_t read_empty = 0;
  uint64_t write_calls = 0;
  uint64_t readready_calls = 0;
  uint64_t io_ns = 0;
  uint64_t connect_failures = 0;

  NetSnapshot operator-(const NetSnapshot& o) const;
};

class TimingTransport : public flick::Transport {
 public:
  explicit TimingTransport(flick::Transport* inner) : inner_(inner) {}

  flick::Result<std::unique_ptr<flick::Listener>> Listen(uint16_t port) override;
  flick::Result<std::unique_ptr<flick::Connection>> Connect(uint16_t port) override;
  const char* name() const override { return inner_->name(); }

  NetCounters& counters() { return counters_; }
  NetSnapshot Snapshot() const;
  // Durations (ns) of every Accept() that returned a connection and of every
  // Connect(), successful or not.
  std::vector<uint64_t> accept_ns() const;
  std::vector<uint64_t> connect_ns() const;
  void RecordAccept(uint64_t ns);

 private:
  flick::Transport* inner_;
  NetCounters counters_;
  mutable std::mutex mutex_;
  std::vector<uint64_t> accept_ns_;   // guarded by mutex_
  std::vector<uint64_t> connect_ns_;  // guarded by mutex_
};

// Forwards to `inner` and returns its objects as they are.
class PortTap : public flick::Transport {
 public:
  explicit PortTap(flick::Transport* inner) : inner_(inner) {}

  flick::Result<std::unique_ptr<flick::Listener>> Listen(uint16_t port) override;
  flick::Result<std::unique_ptr<flick::Connection>> Connect(uint16_t port) override {
    return inner_->Connect(port);
  }
  const char* name() const override { return inner_->name(); }

  uint16_t last_port() const { return last_port_.load(); }

 private:
  flick::Transport* inner_;
  std::atomic<uint16_t> last_port_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_TRANSPORT_H_
