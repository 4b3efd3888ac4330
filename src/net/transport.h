// Transport abstraction the FLICK platform runs on.
//
// The paper's platform runs either on the kernel TCP stack or on a modified
// mTCP + DPDK user-space stack (§5). This repo provides the same seam:
//   * SimTransport  — in-process fabric with calibrated kernel/mTCP cost
//                     models (used by benches; see the calibration notes in
//                     sim_transport.cc), and
//   * KernelTransport — real non-blocking sockets on loopback.
// All IO is non-blocking; the runtime polls readiness cooperatively.
#ifndef FLICK_NET_TRANSPORT_H_
#define FLICK_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "base/io_slice.h"
#include "base/result.h"

namespace flick {

// A bidirectional byte-stream connection endpoint. Non-blocking:
//   Read/Write return 0 when they would block;
//   Read returns kUnavailable once the peer has closed and data is drained.
class Connection {
 public:
  virtual ~Connection() = default;

  virtual Result<size_t> Read(void* buf, size_t len) = 0;
  virtual Result<size_t> Write(const void* buf, size_t len) = 0;

  // Scatter-gather write: sends the slices in order as one byte stream, with
  // short-write semantics — the return value is total bytes accepted, which
  // may end mid-slice (0 when the transport would block). Transports override
  // this to make the whole batch cost ONE kernel crossing (`writev`); the
  // base implementation degrades to one Write per slice so every Connection
  // stays correct.
  virtual Result<size_t> Writev(const IoSlice* slices, size_t count) {
    size_t total = 0;
    for (size_t i = 0; i < count; ++i) {
      if (slices[i].len == 0) {
        continue;
      }
      auto wrote = Write(slices[i].data, slices[i].len);
      if (!wrote.ok()) {
        // Bytes already accepted are on the wire; surface them and let the
        // caller hit the error on its next flush.
        return total > 0 ? Result<size_t>(total) : wrote;
      }
      total += *wrote;
      if (*wrote < slices[i].len) {
        break;  // transport backpressure mid-slice
      }
    }
    return total;
  }

  // Scatter read: fills the slices in order from the byte stream, with
  // short-read semantics — the return value is total bytes filled, which may
  // end mid-slice (0 when the transport would block). Transports override
  // this to make the whole fill cost ONE kernel crossing (`readv`/`recvmsg`);
  // the base implementation degrades to one Read per slice so every
  // Connection stays correct.
  virtual Result<size_t> Readv(const MutIoSlice* slices, size_t count) {
    size_t total = 0;
    for (size_t i = 0; i < count; ++i) {
      if (slices[i].len == 0) {
        continue;
      }
      auto got = Read(slices[i].data, slices[i].len);
      if (!got.ok()) {
        // Bytes already filled belong to the stream; surface them and let the
        // caller hit the EOF/error on its next fill.
        return total > 0 ? Result<size_t>(total) : got;
      }
      total += *got;
      if (*got < slices[i].len) {
        break;  // stream drained mid-slice
      }
    }
    return total;
  }

  // Half-close is not modelled; Close tears down both directions.
  virtual void Close() = 0;
  virtual bool IsOpen() const = 0;

  // True when a Read would make progress (data buffered or peer closed).
  virtual bool ReadReady() const = 0;

  // Event-driven readiness (the epoll seam): transports that can deliver
  // readiness EDGES invoke `hook` from the peer's writer thread whenever
  // bytes land or the peer closes, and return true — the watcher then never
  // has to poll ReadReady() for this connection. Contract:
  //   * installing a hook on an already-readable connection invokes it once
  //     immediately (bytes that predate the hook are not lost);
  //   * SetReadReadyHook(nullptr) clears the hook and guarantees no
  //     invocation is in flight once it returns (safe to free the watcher);
  //   * the hook must be cheap and must never call back into this connection
  //     (it runs under the transport's hook lock).
  // The default declines: pure-polling transports (kernel loopback) return
  // false and the poller falls back to the ReadReady() scan.
  virtual bool SetReadReadyHook(std::function<void()> hook) {
    (void)hook;
    return false;
  }

  virtual uint64_t id() const = 0;
};

class Listener {
 public:
  virtual ~Listener() = default;

  // Non-blocking; nullptr when no pending connection.
  virtual std::unique_ptr<Connection> Accept() = 0;
  virtual uint16_t port() const = 0;
  virtual void Close() = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual Result<std::unique_ptr<Listener>> Listen(uint16_t port) = 0;

  // Additional accept socket on a port this transport already listens on —
  // the sharded-IO-plane accept path: each poller shard drains its own
  // listener, so one accepted connection's whole graph stays on one shard.
  // Kernel: an SO_REUSEPORT member socket (the kernel hash-distributes new
  // connections over the group). Sim: joins the port's accept group;
  // connections are placed round-robin across members. Transports that
  // cannot share a port keep this default; the platform then registers the
  // single listener with every shard and lets sweep order distribute.
  virtual Result<std::unique_ptr<Listener>> ListenShared(uint16_t port) {
    (void)port;
    return Status(StatusCode::kUnimplemented, "transport cannot share a port");
  }

  virtual Result<std::unique_ptr<Connection>> Connect(uint16_t port) = 0;
  virtual const char* name() const = 0;
};

}  // namespace flick

#endif  // FLICK_NET_TRANSPORT_H_
