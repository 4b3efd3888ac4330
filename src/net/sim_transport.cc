#include "net/sim_transport.h"

#include <algorithm>

#include "base/spin_work.h"
#include "base/time_util.h"

namespace flick {

// Calibration notes: the absolute unit scale is arbitrary; the ratios are
// what reproduce the paper. Kernel connection setup/teardown is ~8x mTCP's
// (paper §6.3: non-persistent throughput 45k vs 193k req/s is dominated by
// per-connection cost), and kernel per-call overhead ~4x (mode switch + VFS;
// §5).
StackCostModel StackCostModel::Kernel() {
  return StackCostModel{"sim-kernel", /*connect=*/9000, /*accept=*/14000,
                        /*teardown=*/7000, /*op=*/900, /*per_kb=*/60};
}

StackCostModel StackCostModel::Mtcp() {
  return StackCostModel{"sim-mtcp", /*connect=*/1200, /*accept=*/1800,
                        /*teardown=*/900, /*op=*/220, /*per_kb=*/60};
}

StackCostModel StackCostModel::Null() { return StackCostModel{}; }

SimConnection::SimConnection(std::shared_ptr<internal::SimConnState> state, bool is_a,
                             const StackCostModel& cost, uint64_t id)
    : state_(std::move(state)), is_a_(is_a), cost_(cost), id_(id) {}

SimConnection::~SimConnection() { Close(); }

// --------------------------------------------------------------------------
// Fault gates. A null faults_ costs one branch; with a spec installed, the
// gates decide terminal outcomes (injected RST / truncation EOF / stall
// would-block) and cap the byte budget so a threshold lands exactly at its
// scripted offset — "deliver 100 bytes then reset" means byte 101 never
// reaches the caller.
// --------------------------------------------------------------------------

bool SimConnection::FaultGateRead(Result<size_t>* out, size_t* budget) {
  internal::ConnFaultState& f = *faults_;
  if (f.rst_fired.load(std::memory_order_relaxed)) {
    *out = Status(StatusCode::kUnavailable, "connection reset (injected)");
    return true;
  }
  if (f.truncated.load(std::memory_order_relaxed)) {
    *out = Status(StatusCode::kUnavailable, "peer closed");
    return true;
  }
  if (!f.rx_stall_done && f.spec.stall_rx_after_bytes != kFaultNever &&
      f.rx_seen >= f.spec.stall_rx_after_bytes) {
    const uint64_t now = MonotonicNanos();
    uint64_t until = f.stall_rx_until_ns.load(std::memory_order_relaxed);
    if (until == 0) {
      until = now + f.spec.stall_rx_for_ns;
      f.stall_rx_until_ns.store(until, std::memory_order_release);
      f.counters->read_stalls.fetch_add(1, std::memory_order_relaxed);
    }
    if (now < until) {
      *out = size_t{0};  // would-block for the stall window
      return true;
    }
    f.rx_stall_done = true;
  }
  if (f.spec.rst_after_rx_bytes != kFaultNever) {
    if (f.rx_seen >= f.spec.rst_after_rx_bytes) {
      f.rst_fired.store(true, std::memory_order_relaxed);
      f.counters->rsts.fetch_add(1, std::memory_order_relaxed);
      *out = Status(StatusCode::kUnavailable, "connection reset (injected)");
      return true;
    }
    *budget = std::min<uint64_t>(*budget, f.spec.rst_after_rx_bytes - f.rx_seen);
  }
  if (f.spec.truncate_after_rx_bytes != kFaultNever) {
    if (f.rx_seen >= f.spec.truncate_after_rx_bytes) {
      f.truncated.store(true, std::memory_order_relaxed);
      f.counters->truncations.fetch_add(1, std::memory_order_relaxed);
      // Clean EOF: same status the organic peer-closed path returns, so the
      // consumer exercises its real mid-message-EOF handling.
      *out = Status(StatusCode::kUnavailable, "peer closed");
      return true;
    }
    *budget =
        std::min<uint64_t>(*budget, f.spec.truncate_after_rx_bytes - f.rx_seen);
  }
  return false;
}

bool SimConnection::FaultGateWrite(Result<size_t>* out, size_t* budget) {
  (void)budget;
  internal::ConnFaultState& f = *faults_;
  if (f.rst_fired.load(std::memory_order_relaxed)) {
    *out = Status(StatusCode::kUnavailable, "connection reset (injected)");
    return true;
  }
  if (!f.tx_stall_done && f.spec.stall_tx_after_bytes != kFaultNever &&
      f.tx_seen >= f.spec.stall_tx_after_bytes) {
    const uint64_t now = MonotonicNanos();
    uint64_t until = f.stall_tx_until_ns.load(std::memory_order_relaxed);
    if (until == 0) {
      until = now + f.spec.stall_tx_for_ns;
      f.stall_tx_until_ns.store(until, std::memory_order_release);
      f.counters->write_stalls.fetch_add(1, std::memory_order_relaxed);
    }
    if (now < until) {
      *out = size_t{0};  // would-block for the stall window
      return true;
    }
    f.tx_stall_done = true;
  }
  return false;
}

// XORs the scripted rx byte if it landed inside [start_offset, +len). The
// mask is seed-derived and never zero, so corruption is guaranteed visible.
void SimConnection::FaultCorrupt(uint8_t* p, size_t len, uint64_t start_offset) {
  internal::ConnFaultState& f = *faults_;
  const uint64_t at = f.spec.corrupt_rx_at_byte;
  if (at == kFaultNever || at < start_offset || at >= start_offset + len) {
    return;
  }
  const uint8_t mask =
      static_cast<uint8_t>((f.seed * 0x9E3779B97F4A7C15ull) >> 56) | 0x01;
  p[at - start_offset] ^= mask;
  f.spec.corrupt_rx_at_byte = kFaultNever;  // single-shot
  f.counters->bytes_corrupted.fetch_add(1, std::memory_order_relaxed);
}

Result<size_t> SimConnection::Read(void* buf, size_t len) {
  if (!my_open().load(std::memory_order_acquire)) {
    return Status(StatusCode::kUnavailable, "read on closed connection");
  }
  size_t fault_budget = len;
  if (faults_ != nullptr) {
    Result<size_t> gated{size_t{0}};
    if (FaultGateRead(&gated, &fault_budget)) {
      return gated;
    }
    len = std::min(len, fault_budget);
  }
  const size_t n = rx().Read(buf, len);
  if (n == 0) {
    // Empty poll: a readiness probe, not a full syscall — event-driven
    // callers (epoll, mTCP) do not pay a read for non-readable sockets.
    SpinWork(cost_.op_cost / 8);
    if (!peer_open().load(std::memory_order_acquire) && rx().ReadableBytes() == 0) {
      return Status(StatusCode::kUnavailable, "peer closed");
    }
    return size_t{0};
  }
  SpinWork(cost_.op_cost + cost_.per_kb_cost * ((n + 1023) / 1024));
  if (faults_ != nullptr) {
    FaultCorrupt(static_cast<uint8_t*>(buf), n, faults_->rx_seen);
    faults_->rx_seen += n;
    // A fault-capped read may strand ring bytes past the threshold; re-arm
    // so the consumer comes back and observes the scripted outcome.
    RearmIfResidual();
  }
  if (cost_.max_bytes_per_op > 0) {
    RearmIfResidual();
  }
  return n;
}

// The read-side mirror of Writev: every segment is filled in order under ONE
// op_cost charge, so a window of N rx buffers costs N-1 fewer simulated
// syscalls than per-buffer reads — the cost structure a real readv/recvmsg
// gives. `max_bytes_per_op` caps the fill total so tests can inject short
// reads mid-iovec.
Result<size_t> SimConnection::Readv(const MutIoSlice* slices, size_t count) {
  if (!my_open().load(std::memory_order_acquire)) {
    return Status(StatusCode::kUnavailable, "read on closed connection");
  }
  size_t budget =
      cost_.max_bytes_per_op > 0 ? cost_.max_bytes_per_op : static_cast<size_t>(-1);
  if (faults_ != nullptr) {
    Result<size_t> gated{size_t{0}};
    size_t fault_budget = budget;
    if (FaultGateRead(&gated, &fault_budget)) {
      return gated;
    }
    budget = std::min(budget, fault_budget);
  }
  size_t total = 0;
  for (size_t i = 0; i < count && total < budget; ++i) {
    auto* p = static_cast<uint8_t*>(slices[i].data);
    size_t want = slices[i].len;
    if (want > budget - total) {
      want = budget - total;  // short-read injection lands mid-iovec
    }
    const size_t n = rx().Read(p, want);
    if (faults_ != nullptr && n > 0) {
      FaultCorrupt(p, n, faults_->rx_seen + total);
    }
    total += n;
    if (n < slices[i].len) {
      break;  // ring drained (or injected cap): short read
    }
  }
  if (total == 0) {
    // Empty poll: a readiness probe, not a full syscall.
    SpinWork(cost_.op_cost / 8);
    if (!peer_open().load(std::memory_order_acquire) && rx().ReadableBytes() == 0) {
      return Status(StatusCode::kUnavailable, "peer closed");
    }
    return total;
  }
  SpinWork(cost_.op_cost + cost_.per_kb_cost * ((total + 1023) / 1024));
  if (faults_ != nullptr) {
    faults_->rx_seen += total;
    RearmIfResidual();  // fault-capped fill may strand bytes past a threshold
  }
  if (cost_.max_bytes_per_op > 0) {
    RearmIfResidual();
  }
  return total;
}

Result<size_t> SimConnection::Write(const void* buf, size_t len) {
  if (!my_open().load(std::memory_order_acquire)) {
    return Status(StatusCode::kUnavailable, "write on closed connection");
  }
  if (!peer_open().load(std::memory_order_acquire)) {
    return Status(StatusCode::kUnavailable, "peer closed");
  }
  if (faults_ != nullptr) {
    Result<size_t> gated{size_t{0}};
    size_t fault_budget = len;
    if (FaultGateWrite(&gated, &fault_budget)) {
      return gated;
    }
  }
  if (cost_.max_bytes_per_op > 0 && len > cost_.max_bytes_per_op) {
    len = cost_.max_bytes_per_op;
  }
  const size_t n = tx().Write(buf, len);
  if (n == 0) {
    SpinWork(cost_.op_cost / 8);  // transport full: would-block probe
    return n;
  }
  SpinWork(cost_.op_cost + cost_.per_kb_cost * ((n + 1023) / 1024));
  if (faults_ != nullptr) {
    faults_->tx_seen += n;
  }
  FirePeerHook();
  return n;
}

// The point of the vectored path: every segment is copied in order under ONE
// op_cost charge, so batching N messages costs N fewer simulated syscalls —
// the same cost structure a real writev gives over per-message send.
Result<size_t> SimConnection::Writev(const IoSlice* slices, size_t count) {
  if (!my_open().load(std::memory_order_acquire)) {
    return Status(StatusCode::kUnavailable, "write on closed connection");
  }
  if (!peer_open().load(std::memory_order_acquire)) {
    return Status(StatusCode::kUnavailable, "peer closed");
  }
  if (faults_ != nullptr) {
    Result<size_t> gated{size_t{0}};
    size_t fault_budget = static_cast<size_t>(-1);
    if (FaultGateWrite(&gated, &fault_budget)) {
      return gated;
    }
  }
  const size_t budget =
      cost_.max_bytes_per_op > 0 ? cost_.max_bytes_per_op : static_cast<size_t>(-1);
  size_t total = 0;
  for (size_t i = 0; i < count && total < budget; ++i) {
    const auto* p = static_cast<const uint8_t*>(slices[i].data);
    size_t remaining = slices[i].len;
    if (remaining > budget - total) {
      remaining = budget - total;  // partial-write injection lands mid-iovec
    }
    const size_t n = tx().Write(p, remaining);
    total += n;
    if (n < slices[i].len) {
      break;  // ring full (or injected cap): short write
    }
  }
  if (total == 0) {
    SpinWork(cost_.op_cost / 8);  // transport full: would-block probe
    return total;
  }
  SpinWork(cost_.op_cost + cost_.per_kb_cost * ((total + 1023) / 1024));
  if (faults_ != nullptr) {
    faults_->tx_seen += total;
  }
  FirePeerHook();
  return total;
}

void SimConnection::Close() {
  bool was_open = my_open().exchange(false, std::memory_order_acq_rel);
  if (was_open) {
    SpinWork(cost_.teardown_cost);
    FirePeerHook();  // peer is now "readable": its reads return kUnavailable
  }
}

bool SimConnection::IsOpen() const { return my_open().load(std::memory_order_acquire); }

bool SimConnection::ReadReady() const {
  if (!my_open().load(std::memory_order_acquire)) {
    return false;
  }
  if (faults_ != nullptr) {
    // A fired terminal fault makes the conn "readable": the next read
    // surfaces the scripted error promptly instead of idling.
    if (faults_->rst_fired.load(std::memory_order_relaxed) ||
        faults_->truncated.load(std::memory_order_relaxed)) {
      return true;
    }
    const uint64_t until =
        faults_->stall_rx_until_ns.load(std::memory_order_acquire);
    if (until != 0 && MonotonicNanos() < until) {
      return false;  // mid-stall: nothing to read no matter what the ring says
    }
  }
  return rx().ReadableBytes() > 0 || !peer_open().load(std::memory_order_acquire);
}

namespace {

void FireHook(internal::ReadyHook& hook) {
  std::lock_guard<std::mutex> lock(hook.mu);
  if (hook.fn != nullptr) {
    hook.fn();
  }
}

}  // namespace

// Fired on EVERY successful write, not just the empty->nonempty edge: the
// SPSC ring is lock-free, so a writer cannot atomically pair "was the ring
// empty" with its publish — a reader draining between the two would swallow
// the edge and strand the bytes. Unconditional fire is race-free because the
// receiver (Scheduler::NotifyRunnable) coalesces duplicate notifications.
void SimConnection::FirePeerHook() const { FireHook(peer_hook()); }

// An injected short read (max_bytes_per_op below what the ring holds) breaks
// the "short fill proves the wire drained" contract readers rely on — and the
// leftover bytes may never see another write, hence never another edge. Re-arm
// by firing our OWN hook, the way level-triggered epoll keeps reporting a
// socket with residual bytes.
void SimConnection::RearmIfResidual() const {
  if (rx().ReadableBytes() > 0) {
    FireHook(my_hook());
  }
}

bool SimConnection::SetReadReadyHook(std::function<void()> hook) {
  internal::ReadyHook& slot = my_hook();
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.fn = std::move(hook);
  if (slot.fn != nullptr && ReadReady()) {
    slot.fn();  // catch-up: bytes (or an EOF) that predate the install
  }
  return true;
}

SimListener::SimListener(SimNetwork* network, uint16_t port, StackCostModel cost)
    : network_(network), port_(port), cost_(cost) {}

SimListener::~SimListener() { Close(); }

std::unique_ptr<Connection> SimListener::Accept() {
  auto conn = pending_.TryPop();
  if (!conn.has_value()) {
    return nullptr;
  }
  SpinWork(cost_.accept_cost);
  return std::move(*conn);
}

void SimListener::Close() {
  if (!closed_.exchange(true, std::memory_order_acq_rel)) {
    network_->Unregister(port_, this);
    pending_.Close();
  }
}

Result<std::unique_ptr<Listener>> SimNetwork::Listen(uint16_t port,
                                                     const StackCostModel& cost) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = listeners_.try_emplace(port);
  if (!inserted) {
    return Status(StatusCode::kAlreadyExists, "port in use");
  }
  auto listener = std::make_unique<SimListener>(this, port, cost);
  it->second.members.push_back(listener.get());
  return Result<std::unique_ptr<Listener>>(std::move(listener));
}

Result<std::unique_ptr<Listener>> SimNetwork::ListenShared(uint16_t port,
                                                           const StackCostModel& cost) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto listener = std::make_unique<SimListener>(this, port, cost);
  listeners_[port].members.push_back(listener.get());
  return Result<std::unique_ptr<Listener>>(std::move(listener));
}

Result<std::unique_ptr<Connection>> SimNetwork::Connect(uint16_t port,
                                                        const StackCostModel& cost) {
  // Handshake work happens outside the fabric lock so concurrent clients pay
  // it in parallel, as real stacks do.
  SpinWork(cost.connect_cost);
  auto state = std::make_shared<internal::SimConnState>(ring_capacity_);
  const uint64_t base_id = next_conn_id_.fetch_add(2, std::memory_order_relaxed);
  auto client = std::make_unique<SimConnection>(state, /*is_a=*/true, cost, base_id);

  // The fabric lock is held across the hand-off so the listener cannot be
  // destroyed between lookup and enqueue (lock order: fabric -> queue).
  std::lock_guard<std::mutex> lock(mutex_);

  // Fault plane: connect-scoped budgets burn under the fabric lock, so
  // concurrent dialers consume them deterministically, one each.
  PortFaults* pf = nullptr;
  if (auto fit = faults_.find(port); fit != faults_.end()) {
    pf = &fit->second;
  }
  if (pf != nullptr && pf->plan.refuse_connects > 0) {
    --pf->plan.refuse_connects;
    pf->counters->connects_refused.fetch_add(1, std::memory_order_relaxed);
    failed_connects_.fetch_add(1, std::memory_order_relaxed);
    return Status(StatusCode::kUnavailable, "connection refused (injected)");
  }
  if (pf != nullptr && pf->plan.blackhole_connects > 0) {
    --pf->plan.blackhole_connects;
    pf->counters->connects_blackholed.fetch_add(1, std::memory_order_relaxed);
    // The dial "succeeds" but no server side ever exists: the peer-open flag
    // stays true, so the client's reads would-block forever — a SYN-accepted
    // host that went dark.
    return Result<std::unique_ptr<Connection>>(std::move(client));
  }

  auto it = listeners_.find(port);
  if (it == listeners_.end() || it->second.members.empty()) {
    failed_connects_.fetch_add(1, std::memory_order_relaxed);
    return Status(StatusCode::kUnavailable, "connection refused");
  }
  // Round-robin placement over the port's accept group (one member per
  // poller shard under a sharded IO plane); a closing member is skipped.
  PortGroup& group = it->second;
  for (size_t tries = 0; tries < group.members.size(); ++tries) {
    SimListener* listener = group.members[group.next_rr % group.members.size()];
    group.next_rr = (group.next_rr + 1) % group.members.size();
    if (listener->closed_.load(std::memory_order_acquire)) {
      continue;  // mid-close: Unregister removes it after the flag flips
    }
    auto server = std::make_unique<SimConnection>(state, /*is_a=*/false,
                                                  listener->cost_, base_id + 1);
    if (listener->pending_.TryPush(std::move(server))) {
      total_connects_.fetch_add(1, std::memory_order_relaxed);
      if (pf != nullptr) {
        // FIFO spec hand-out: dial K gets conn_faults[K] (or the last spec
        // forever under repeat_last). Installed before the client is
        // returned, so the owner's first IO call already sees it.
        const ConnFaultSpec* spec = nullptr;
        if (pf->next_spec < pf->plan.conn_faults.size()) {
          spec = &pf->plan.conn_faults[pf->next_spec++];
        } else if (pf->plan.repeat_last && !pf->plan.conn_faults.empty()) {
          spec = &pf->plan.conn_faults.back();
        }
        if (spec != nullptr) {
          auto fs = std::make_shared<internal::ConnFaultState>();
          fs->spec = *spec;
          fs->seed = pf->plan.seed;
          fs->counters = pf->counters;
          client->faults_ = std::move(fs);
          pf->counters->faulted_connects.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return Result<std::unique_ptr<Connection>>(std::move(client));
    }
    // TryPush consumed and destroyed the candidate; its destructor closed
    // the SHARED state's server side — reopen before offering the same
    // state to the next member, or the accepted connection is born dead.
    state->b_open.store(true, std::memory_order_release);
  }
  failed_connects_.fetch_add(1, std::memory_order_relaxed);
  return Status(StatusCode::kUnavailable, "listener closed");
}

void SimNetwork::InjectFaults(uint16_t port, FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  PortFaults& pf = faults_[port];  // counters survive plan replacement
  pf.plan = std::move(plan);
  pf.next_spec = 0;
}

void SimNetwork::ClearFaults(uint16_t port) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = faults_.find(port);
  if (it == faults_.end()) {
    return;
  }
  // Keep the entry (and its counters — live conns share them); just stop
  // applying faults to new dials.
  it->second.plan = FaultPlan{};
  it->second.next_spec = 0;
}

FaultCountersSnapshot SimNetwork::fault_counters(uint16_t port) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FaultCountersSnapshot snap;
  auto it = faults_.find(port);
  if (it == faults_.end()) {
    return snap;
  }
  const internal::FaultCounters& c = *it->second.counters;
  snap.connects_refused = c.connects_refused.load(std::memory_order_relaxed);
  snap.connects_blackholed = c.connects_blackholed.load(std::memory_order_relaxed);
  snap.faulted_connects = c.faulted_connects.load(std::memory_order_relaxed);
  snap.rsts = c.rsts.load(std::memory_order_relaxed);
  snap.truncations = c.truncations.load(std::memory_order_relaxed);
  snap.bytes_corrupted = c.bytes_corrupted.load(std::memory_order_relaxed);
  snap.read_stalls = c.read_stalls.load(std::memory_order_relaxed);
  snap.write_stalls = c.write_stalls.load(std::memory_order_relaxed);
  return snap;
}

void SimNetwork::Unregister(uint16_t port, SimListener* listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = listeners_.find(port);
  if (it == listeners_.end()) {
    return;
  }
  auto& members = it->second.members;
  members.erase(std::remove(members.begin(), members.end(), listener), members.end());
  if (members.empty()) {
    listeners_.erase(it);
  }
}

}  // namespace flick
