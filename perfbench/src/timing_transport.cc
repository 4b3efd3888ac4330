#include "timing_transport.h"

#include <utility>

#include "base/time_util.h"

namespace perfbench {
namespace {

using flick::Connection;
using flick::IoSlice;
using flick::Listener;
using flick::MonotonicNanos;
using flick::MutIoSlice;
using flick::Result;

constexpr auto kRelaxed = std::memory_order_relaxed;

class TimingConnection : public Connection {
 public:
  TimingConnection(std::unique_ptr<Connection> inner, NetCounters* counters)
      : inner_(std::move(inner)), c_(counters) {}

  Result<size_t> Read(void* buf, size_t len) override {
    const uint64_t t0 = MonotonicNanos();
    Result<size_t> r = inner_->Read(buf, len);
    CountRead(r, t0);
    return r;
  }
  Result<size_t> Readv(const MutIoSlice* slices, size_t count) override {
    const uint64_t t0 = MonotonicNanos();
    Result<size_t> r = inner_->Readv(slices, count);
    CountRead(r, t0);
    return r;
  }
  Result<size_t> Write(const void* buf, size_t len) override {
    const uint64_t t0 = MonotonicNanos();
    Result<size_t> r = inner_->Write(buf, len);
    CountWrite(t0);
    return r;
  }
  Result<size_t> Writev(const IoSlice* slices, size_t count) override {
    const uint64_t t0 = MonotonicNanos();
    Result<size_t> r = inner_->Writev(slices, count);
    CountWrite(t0);
    return r;
  }
  void Close() override { inner_->Close(); }
  bool IsOpen() const override { return inner_->IsOpen(); }
  bool ReadReady() const override {
    const uint64_t t0 = MonotonicNanos();
    const bool ready = inner_->ReadReady();
    c_->readready_calls.fetch_add(1, kRelaxed);
    c_->io_ns.fetch_add(MonotonicNanos() - t0, kRelaxed);
    return ready;
  }
  bool SetReadReadyHook(std::function<void()> hook) override {
    return inner_->SetReadReadyHook(std::move(hook));
  }
  uint64_t id() const override { return inner_->id(); }

 private:
  void CountRead(const Result<size_t>& r, uint64_t t0) {
    c_->read_calls.fetch_add(1, kRelaxed);
    if (r.ok() && *r == 0) {
      c_->read_empty.fetch_add(1, kRelaxed);
    }
    c_->io_ns.fetch_add(MonotonicNanos() - t0, kRelaxed);
  }
  void CountWrite(uint64_t t0) {
    c_->write_calls.fetch_add(1, kRelaxed);
    c_->io_ns.fetch_add(MonotonicNanos() - t0, kRelaxed);
  }

  std::unique_ptr<Connection> inner_;
  NetCounters* c_;
};

class TimingListener : public Listener {
 public:
  TimingListener(std::unique_ptr<Listener> inner, TimingTransport* owner)
      : inner_(std::move(inner)), owner_(owner) {}

  std::unique_ptr<Connection> Accept() override {
    const uint64_t t0 = MonotonicNanos();
    std::unique_ptr<Connection> conn = inner_->Accept();
    if (conn == nullptr) {
      return nullptr;  // empty accept-queue probes are the poller's sweep cost
    }
    owner_->RecordAccept(MonotonicNanos() - t0);
    return std::make_unique<TimingConnection>(std::move(conn), &owner_->counters());
  }
  uint16_t port() const override { return inner_->port(); }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<Listener> inner_;
  TimingTransport* owner_;
};

}  // namespace

NetSnapshot NetSnapshot::operator-(const NetSnapshot& o) const {
  NetSnapshot d;
  d.read_calls = read_calls - o.read_calls;
  d.read_empty = read_empty - o.read_empty;
  d.write_calls = write_calls - o.write_calls;
  d.readready_calls = readready_calls - o.readready_calls;
  d.io_ns = io_ns - o.io_ns;
  d.connect_failures = connect_failures - o.connect_failures;
  return d;
}

Result<std::unique_ptr<Listener>> TimingTransport::Listen(uint16_t port) {
  auto inner = inner_->Listen(port);
  if (!inner.ok()) {
    return inner.status();
  }
  return Result<std::unique_ptr<Listener>>(
      std::make_unique<TimingListener>(std::move(inner).value(), this));
}

Result<std::unique_ptr<Connection>> TimingTransport::Connect(uint16_t port) {
  const uint64_t t0 = MonotonicNanos();
  auto inner = inner_->Connect(port);
  const uint64_t ns = MonotonicNanos() - t0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connect_ns_.push_back(ns);
  }
  if (!inner.ok()) {
    counters_.connect_failures.fetch_add(1, kRelaxed);
    return inner.status();
  }
  return Result<std::unique_ptr<Connection>>(
      std::make_unique<TimingConnection>(std::move(inner).value(), &counters_));
}

void TimingTransport::RecordAccept(uint64_t ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  accept_ns_.push_back(ns);
}

NetSnapshot TimingTransport::Snapshot() const {
  NetSnapshot s;
  s.read_calls = counters_.read_calls.load(kRelaxed);
  s.read_empty = counters_.read_empty.load(kRelaxed);
  s.write_calls = counters_.write_calls.load(kRelaxed);
  s.readready_calls = counters_.readready_calls.load(kRelaxed);
  s.io_ns = counters_.io_ns.load(kRelaxed);
  s.connect_failures = counters_.connect_failures.load(kRelaxed);
  return s;
}

std::vector<uint64_t> TimingTransport::accept_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accept_ns_;
}

std::vector<uint64_t> TimingTransport::connect_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connect_ns_;
}

Result<std::unique_ptr<Listener>> PortTap::Listen(uint16_t port) {
  auto inner = inner_->Listen(port);
  if (inner.ok()) {
    last_port_.store((*inner)->port());
  }
  return inner;
}

}  // namespace perfbench
