#include "services/backend_pool.h"

#include <deque>
#include <string>
#include <unordered_map>
#include <utility>

#include "base/check.h"
#include "base/time_util.h"
#include "buffer/buffer_chain.h"
#include "runtime/channel.h"
#include "runtime/io_poller.h"
#include "runtime/msg.h"
#include "runtime/task.h"
#include "runtime/timer_wheel.h"
#include "runtime/wire_batch.h"
#include "runtime/wire_fill.h"

namespace flick::services {
namespace internal {

// One in-flight (sent, unanswered) request on a pooled wire. The FIFO of
// these is the response-correlation state: the lease that sent the request
// and its absolute response deadline.
struct PendingEntry {
  uint64_t lease_id = 0;
  uint64_t deadline_ns = 0;  // absolute MonotonicNanos; 0 = no deadline
};

// Per-(backend, stripe) circuit breaker: the single source of truth for
// "this backend is down" (it replaced the per-conn 3-consecutive-dial-
// failures counter).
//
//   kClosed ──failures reach threshold──▶ kOpen
//   kOpen ──open window elapses (wheel timer)──▶ kHalfOpen
//   kHalfOpen ──single probe dial succeeds / a response routes──▶ kClosed
//   kHalfOpen ──probe dial fails or probe wire dies──▶ kOpen (full window)
//
// Failures are consecutive and shared by every conn of the backend in this
// stripe: failed dials, lost wires, response deadline expiries and response
// parse errors all count. Only a ROUTED RESPONSE resets the count — a
// successful dial alone does not, so a backend that accepts and immediately
// closes keeps counting toward open (the accept-then-RST accounting gap the
// old dial-failure counter had).
//
// Locking: mu_ is a leaf — it is taken under a conn's mutex_ (Run-side
// callbacks) and from the wheel's fire path (no wheel lock held, per the
// TimerWheel contract) and itself takes only scheduler/wheel locks.
class BackendHealth {
 public:
  enum class State : uint8_t { kClosed, kOpen, kHalfOpen };

  void Init(BackendPool* pool, runtime::TimerWheel* wheel,
            std::vector<PoolConnTask*> conns);

  State state() const { return state_.load(std::memory_order_acquire); }
  bool BreakerOpen() const { return state() == State::kOpen; }

  // Dial admission. kClosed admits freely; kOpen refuses; kHalfOpen admits
  // exactly ONE probe at a time (claimed under mu_, so concurrent conns
  // never double-dial a half-open backend). `*is_probe` reports the claim
  // and must be echoed into OnDialResult.
  bool AllowDial(bool* is_probe);
  void OnDialResult(bool ok, bool is_probe);

  // A live wire failed: peer close / wire error, response deadline expiry,
  // response parse error. Counts toward open; reopens a half-open circuit.
  void OnWireFailure();

  // A response was parsed off the wire — the only event that proves the
  // backend healthy. Resets the failure run; closes a half-open circuit.
  void OnResponseRouted();

  // Safe to call any time before the wheel dies (pool dtor runs first by
  // the platform lifetime contract).
  void CancelTimer() {
    if (wheel_ != nullptr) {
      wheel_->Cancel(&open_entry_);
    }
  }

  // --- stats (relaxed; summed by BackendPool::stats) -------------------------
  std::atomic<uint64_t> opens{0};
  std::atomic<uint64_t> half_opens{0};
  std::atomic<uint64_t> closes{0};

 private:
  void OnOpenTimerFired();
  void OpenLocked();   // mu_ held
  void CloseLocked();  // mu_ held
  void NotifyConns();  // scheduler locks only; safe under mu_
  void MarkConnsDead();

  std::mutex mu_;
  std::atomic<State> state_{State::kClosed};
  std::atomic<uint32_t> consecutive_failures_{0};
  bool probe_outstanding_ = false;  // guarded by mu_
  runtime::TimerEntry open_entry_;
  BackendPool* pool_ = nullptr;
  runtime::TimerWheel* wheel_ = nullptr;
  std::vector<PoolConnTask*> conns_;
};

// Drives one persistent backend connection: drains the request channels of
// every attached lease (round-robin), pipelines the serialized requests onto
// the wire with a FIFO of pending entries, parses responses and routes each
// to the reply channel of the lease at the FIFO head. Owns redial after a
// lost wire (gated by the backend's circuit breaker) and the response
// deadline of the FIFO head (one wheel timer per conn, lazily re-armed).
// All state is guarded by mutex_, shared with attach/detach.
class PoolConnTask : public runtime::Task {
 public:
  // `poller` is the owning stripe's shard poller: this wire's watches, its
  // redial kicks and its deadline timer stay on that shard. The stripe also
  // picks the task's pools (shard `stripe`'s slices on a sharded platform)
  // and pins its compute to that shard's worker group — the full
  // share-nothing column. `health` is the (backend, stripe) breaker shared
  // with sibling conns.
  PoolConnTask(std::string name, BackendPool* pool, uint16_t port,
               runtime::PlatformEnv& env, runtime::IoPoller* poller,
               size_t stripe, BackendHealth& health)
      : Task(std::move(name)),
        pool_(pool),
        port_(port),
        transport_(env.transport),
        poller_(poller),
        msgs_(env.shard_msgs(stripe)),
        health_(health),
        rx_(env.shard_buffers(stripe)),
        tx_(env.shard_buffers(stripe)),
        serializer_(pool->config_.make_serializer()),
        deserializer_(pool->config_.make_deserializer()) {
    shard_affinity = static_cast<int>(stripe);
    fill_window_.set_max(pool->config_.fill_window);
    deadline_entry_.on_fire = [this] {
      deadline_fired_.store(true, std::memory_order_release);
      NotifySelf();
    };
  }

  ~PoolConnTask() override {
    // Platform is stopped by the time the pool dies (documented contract),
    // so unwatch/cancel are bookkeeping, not races with the poller sweep.
    poller_->wheel().Cancel(&deadline_entry_);
    std::lock_guard<std::mutex> lock(mutex_);
    if (wire_ != nullptr) {
      poller_->UnwatchConnection(wire_.get());
      wire_->Close();
      wire_.reset();
    }
  }

  void AttachLease(uint64_t lease_id, runtime::Channel* requests,
                   runtime::Channel* replies, runtime::Scheduler* scheduler) {
    std::lock_guard<std::mutex> lock(mutex_);
    requests->BindConsumer(this, scheduler);
    replies->BindProducer(this);
    lease_index_[lease_id] = leases_.size();
    leases_.push_back(LeaseSlot{lease_id, requests, replies, /*finished=*/false});
  }

  // After this returns the task never touches the lease's channels again.
  // Pending FIFO entries for the lease stay queued (correlation slots); their
  // responses are dropped on arrival.
  void DetachLease(uint64_t lease_id) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = lease_index_.find(lease_id);
    if (it == lease_index_.end()) {
      return;
    }
    const size_t index = it->second;
    lease_index_.erase(it);
    if (index + 1 != leases_.size()) {
      leases_[index] = leases_.back();  // swap-pop keeps lookups O(1)
      lease_index_[leases_[index].lease_id] = index;
    }
    leases_.pop_back();
    if (next_lease_ >= leases_.size()) {
      next_lease_ = 0;
    }
  }

  // One atomic wire state instead of separate connected/ever-connected flags:
  // LeaseFinished's lock-free fast path must see a CONSISTENT snapshot (two
  // flags stored in sequence gave a window where "was up" was visible before
  // "is up", reading as a lost wire mid-first-dial).
  enum class WireState : uint8_t { kNeverTried, kConnected, kDead };

  bool connected() const {
    return wire_state_.load(std::memory_order_acquire) == WireState::kConnected;
  }

  WireState wire_state() const { return wire_state_.load(std::memory_order_acquire); }

  // Breaker opened for this backend: a never-connected conn is dead for
  // retirement purposes (a refused backend must not pin departing graphs).
  // A conn with a LIVE wire keeps it — open gates dials, not existing
  // streams (the wire either keeps answering or dies organically).
  void OnBreakerOpen() {
    WireState expected = WireState::kNeverTried;
    wire_state_.compare_exchange_strong(expected, WireState::kDead,
                                        std::memory_order_acq_rel);
  }

  // Test hook (BackendPool::CloseConnectionForTest): drops the wire as a
  // lost wire would and defers the redial so the dead state is observable.
  // Breaker accounting is untouched: tests use it to construct dead-slot
  // states, not to exercise the health plane. The wake lets the run slice
  // deliver the in-flight requests' kError replies.
  void ForceDropWireForTest(uint64_t redial_hold_ns) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (wire_ != nullptr) {
        Disconnect();
      } else {
        wire_state_.store(WireState::kDead, std::memory_order_release);
      }
      if (redial_hold_ns > 0) {
        next_dial_at_ns_.store(MonotonicNanos() + redial_hold_ns,
                               std::memory_order_release);
      }
    }
    NotifySelf();
  }

  // True once the lease's leg on this connection has consumed its EOF (the
  // request channel is FIFO, so everything the graph committed is already
  // serialized toward the wire) or is already detached. A DEAD wire also
  // counts as finished — one that was lost after being up (delivery is per
  // byte stream, and the stream is gone) or whose backend's circuit breaker
  // opened (a never-answering backend must not pin departing graphs
  // forever). "Not connected" merely because the first dial has not run yet
  // — or missed once — does NOT count: graphs routinely finish before the
  // initial dial on a loaded host, and their queued requests must survive
  // until the wire comes up.
  //
  // Runs on the poller thread from a wheel timer, so it must never wait on
  // mutex_ (held across whole run slices, including transport writes): a
  // contended lock means the task is mid-Run and the leg can simply be
  // re-polled next sweep.
  bool LeaseFinished(uint64_t lease_id) {
    if (wire_state_.load(std::memory_order_acquire) == WireState::kDead) {
      return true;
    }
    std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
    if (!lock.owns_lock()) {
      return false;  // conn task mid-Run; answer next sweep
    }
    const auto it = lease_index_.find(lease_id);
    if (it == lease_index_.end()) {
      return true;
    }
    return leases_[it->second].finished;
  }

  // Redial ticker hook (poller thread): true when a dial attempt is due.
  bool WantsRedialKick() const {
    if (connected()) {
      return false;
    }
    return MonotonicNanos() >= next_dial_at_ns_.load(std::memory_order_acquire);
  }

  runtime::TaskRunResult Run(runtime::TaskContext& ctx) override;

  // --- stats (relaxed; summed by BackendPool::stats) -------------------------
  std::atomic<uint64_t> dials_ok{0};
  std::atomic<uint64_t> dial_failures{0};
  std::atomic<uint64_t> reconnects{0};
  std::atomic<uint64_t> disconnects{0};
  std::atomic<uint64_t> requests_forwarded{0};
  std::atomic<uint64_t> responses_routed{0};
  std::atomic<uint64_t> responses_dropped{0};
  std::atomic<uint64_t> response_parse_errors{0};
  std::atomic<uint64_t> request_deadline_expiries{0};
  std::atomic<uint64_t> requests_failed{0};
  std::atomic<uint64_t> pipeline_hwm{0};
  runtime::WriteBatchCounters batch;
  runtime::ReadBatchCounters read_batch;

 private:
  friend class BackendPool;

  struct LeaseSlot {
    uint64_t lease_id;
    runtime::Channel* requests;
    runtime::Channel* replies;
    bool finished;  // leg consumed its EOF
  };

  void NotifySelf() {
    runtime::Scheduler* scheduler = pool_->scheduler_;
    if (scheduler != nullptr) {
      scheduler->NotifyRunnable(this);
    }
  }

  // All helpers below run under mutex_.

  bool EnsureWire() {
    if (wire_ != nullptr) {
      return true;
    }
    if (MonotonicNanos() < next_dial_at_ns_.load(std::memory_order_relaxed)) {
      return false;
    }
    bool is_probe = false;
    if (!health_.AllowDial(&is_probe)) {
      // Circuit open, or the half-open probe is already claimed by a
      // sibling: do not dial. Pace the next check like a failed dial.
      next_dial_at_ns_.store(
          MonotonicNanos() + pool_->config_.redial_interval_ns,
          std::memory_order_release);
      return false;
    }
    auto conn = transport_->Connect(port_);
    if (!conn.ok()) {
      dial_failures.fetch_add(1, std::memory_order_relaxed);
      // Breaker accounting decides death now (it opens after the configured
      // failure run and marks every sibling dead); one transient miss is not
      // death — queued requests survive a blip and flush on the next dial,
      // as Acquire()'s "requests queue until redial" promises.
      health_.OnDialResult(false, is_probe);
      next_dial_at_ns_.store(
          MonotonicNanos() + pool_->config_.redial_interval_ns,
          std::memory_order_release);
      return false;
    }
    wire_ = std::move(conn).value();
    dials_ok.fetch_add(1, std::memory_order_relaxed);
    if (ever_connected_) {
      reconnects.fetch_add(1, std::memory_order_relaxed);
    }
    ever_connected_ = true;
    wire_state_.store(WireState::kConnected, std::memory_order_release);
    health_.OnDialResult(true, is_probe);
    poller_->WatchConnection(wire_.get(), this);
    return true;
  }

  // Tears the wire down. Every in-flight request's response is gone with
  // the old byte stream, so each FIFO entry becomes a kError reply to its
  // lease, queued in FIFO order (DrainFailuresLocked delivers them).
  void Disconnect() {
    if (wire_ != nullptr) {
      poller_->UnwatchConnection(wire_.get());
      wire_->Close();
      wire_.reset();
    }
    wire_state_.store(WireState::kDead, std::memory_order_release);
    disconnects.fetch_add(1, std::memory_order_relaxed);
    for (const PendingEntry& entry : pending_) {
      fail_queue_.push_back(entry.lease_id);
    }
    pending_.clear();
    rx_.Clear();  // also returns the reserved fill window to the pool
    tx_.Clear();
    fill_window_.Reset();  // the next wire earns its window back
    msgs_since_flush_ = 0;
    deserializer_->Reset();
    parse_msg_ = runtime::MsgRef();
    next_dial_at_ns_.store(MonotonicNanos() + pool_->config_.redial_interval_ns,
                           std::memory_order_release);
  }

  // Delivers a parsed response (or synthesized kError) to its lease. False
  // when the reply channel is full (the channel wakes us as its bound
  // producer once drained).
  bool RouteReply(runtime::MsgRef&& msg, uint64_t lease_id) {
    const bool is_error = msg->kind == runtime::Msg::Kind::kError;
    const auto it = lease_index_.find(lease_id);
    if (it == lease_index_.end()) {
      responses_dropped.fetch_add(1, std::memory_order_relaxed);  // lease gone
      return true;
    }
    if (!leases_[it->second].replies->TryPush(std::move(msg))) {
      stalled_reply_ = std::move(msg);
      stalled_reply_lease_ = lease_id;
      return false;
    }
    if (is_error) {
      requests_failed.fetch_add(1, std::memory_order_relaxed);
    } else {
      responses_routed.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  // Synthesizes and routes the queued kError replies (fail_queue_).
  // Deliverable regardless of wire state — that is the point: a dead backend
  // still answers its leases, with errors. False when a reply channel filled
  // (stalled_reply_ holds the undeliverable message).
  bool DrainFailuresLocked() {
    while (!fail_queue_.empty()) {
      const uint64_t lease_id = fail_queue_.front();
      fail_queue_.pop_front();
      runtime::MsgRef msg = msgs_->Acquire();
      msg->kind = runtime::Msg::Kind::kError;
      msg->bytes = "backend unavailable";
      if (!RouteReply(std::move(msg), lease_id)) {
        return false;
      }
    }
    return true;
  }

  // Open circuit, wire down: every queued request fails fast as a kError
  // reply instead of waiting out the open window. EOFs still finish their
  // leg — an open breaker must not pin a departing graph.
  void FailFastLocked() {
    for (LeaseSlot& slot : leases_) {
      while (runtime::MsgRef msg = slot.requests->TryPop()) {
        if (msg->kind == runtime::Msg::Kind::kEof) {
          slot.finished = true;
        } else {
          fail_queue_.push_back(slot.lease_id);
        }
      }
    }
  }

  // Keeps the conn's single deadline timer tracking the FIFO head. Entries
  // behind the head can only be LATER (FIFO append order with a fixed
  // per-request budget), so one timer per conn suffices.
  void ArmDeadlineLocked() {
    const uint64_t want = pending_.empty() ? 0 : pending_.front().deadline_ns;
    if (want == armed_deadline_) {
      return;
    }
    runtime::TimerWheel& wheel = poller_->wheel();
    if (want == 0) {
      wheel.Cancel(&deadline_entry_);
    } else if (deadline_entry_.pending()) {
      wheel.Rearm(&deadline_entry_, want);
    } else {
      wheel.Arm(&deadline_entry_, want);
    }
    armed_deadline_ = want;
  }

  // Writes buffered bytes as vectored batches (one transport call covers up
  // to kMaxIoSlices segments); false on a fatal wire error.
  bool FlushWire() {
    return runtime::FlushChainVectored(tx_, *wire_, batch, msgs_since_flush_);
  }

  BackendPool* pool_;
  const uint16_t port_;
  Transport* transport_;
  runtime::IoPoller* poller_;
  runtime::MsgPool* msgs_;
  BackendHealth& health_;

  std::mutex mutex_;
  std::unique_ptr<Connection> wire_;

  bool ever_connected_ = false;  // guarded by mutex_ (reconnect accounting)
  std::atomic<WireState> wire_state_{WireState::kNeverTried};
  std::atomic<uint64_t> next_dial_at_ns_{0};

  BufferChain rx_;
  BufferChain tx_;
  runtime::AdaptiveFillWindow fill_window_;  // guarded by mutex_ (Run-side state)
  std::unique_ptr<runtime::Serializer> serializer_;
  std::unique_ptr<runtime::Deserializer> deserializer_;

  std::vector<LeaseSlot> leases_;
  std::unordered_map<uint64_t, size_t> lease_index_;  // lease id -> leases_ slot
  size_t next_lease_ = 0;              // round-robin drain cursor
  uint64_t msgs_since_flush_ = 0;      // requests in the current write batch
  std::deque<PendingEntry> pending_;   // in-flight request FIFO
  runtime::MsgRef parse_msg_;          // in-progress response parse target
  runtime::MsgRef stalled_reply_;      // parsed response its channel rejected
  uint64_t stalled_reply_lease_ = 0;

  // Response-deadline timer for the FIFO head (stripe's shard wheel).
  runtime::TimerEntry deadline_entry_;
  uint64_t armed_deadline_ = 0;             // guarded by mutex_
  std::atomic<bool> deadline_fired_{false};  // set by the wheel fire path

  std::deque<uint64_t> fail_queue_;  // leases owed a kError reply, in order
};

// ---------------------------------------------------------------------------
// BackendHealth
// ---------------------------------------------------------------------------

void BackendHealth::Init(BackendPool* pool, runtime::TimerWheel* wheel,
                         std::vector<PoolConnTask*> conns) {
  pool_ = pool;
  wheel_ = wheel;
  conns_ = std::move(conns);
  open_entry_.on_fire = [this] { OnOpenTimerFired(); };
}

bool BackendHealth::AllowDial(bool* is_probe) {
  *is_probe = false;
  const State s = state();
  if (s == State::kClosed) {
    return true;  // hot path: no lock while healthy
  }
  if (s == State::kOpen) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (state_.load(std::memory_order_relaxed) != State::kHalfOpen ||
      probe_outstanding_) {
    return false;
  }
  probe_outstanding_ = true;
  *is_probe = true;
  return true;
}

void BackendHealth::OnDialResult(bool ok, bool is_probe) {
  bool closed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
      if (is_probe) {
        probe_outstanding_ = false;
      }
      if (state_.load(std::memory_order_relaxed) == State::kHalfOpen) {
        CloseLocked();
        closed = true;
      }
      // A successful dial in kClosed does NOT reset the failure run: a
      // backend that accepts and immediately closes must keep counting
      // (only a routed response proves health; see OnResponseRouted).
    } else if (is_probe) {
      probe_outstanding_ = false;
      OpenLocked();  // probe failed: full open window again
    } else if (state_.load(std::memory_order_relaxed) == State::kClosed &&
               consecutive_failures_.fetch_add(1, std::memory_order_relaxed) +
                       1 >=
                   pool_->config_.breaker_failure_threshold) {
      OpenLocked();
    }
  }
  if (closed) {
    NotifyConns();  // siblings may dial again immediately
  }
}

void BackendHealth::OnWireFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  const State s = state_.load(std::memory_order_relaxed);
  if (s == State::kOpen) {
    return;
  }
  if (s == State::kHalfOpen) {
    OpenLocked();  // the probe's wire died before proving anything
    return;
  }
  if (consecutive_failures_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      pool_->config_.breaker_failure_threshold) {
    OpenLocked();
  }
}

void BackendHealth::OnResponseRouted() {
  if (consecutive_failures_.load(std::memory_order_relaxed) == 0 &&
      state_.load(std::memory_order_relaxed) == State::kClosed) {
    return;  // steady-state fast path: two relaxed loads, no lock
  }
  bool closed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    consecutive_failures_.store(0, std::memory_order_relaxed);
    if (state_.load(std::memory_order_relaxed) == State::kHalfOpen) {
      CloseLocked();
      closed = true;
    }
  }
  if (closed) {
    NotifyConns();
  }
}

void BackendHealth::OpenLocked() {
  if (state_.load(std::memory_order_relaxed) == State::kOpen) {
    return;
  }
  state_.store(State::kOpen, std::memory_order_release);
  opens.fetch_add(1, std::memory_order_relaxed);
  consecutive_failures_.store(0, std::memory_order_relaxed);
  probe_outstanding_ = false;
  MarkConnsDead();
  const uint64_t at = MonotonicNanos() + pool_->config_.breaker_open_ns;
  if (open_entry_.pending()) {
    wheel_->Rearm(&open_entry_, at);
  } else {
    wheel_->Arm(&open_entry_, at);
  }
  // Wake the conns so queued requests fail fast instead of waiting out the
  // open window (NotifyRunnable takes only scheduler locks; safe under mu_).
  NotifyConns();
}

void BackendHealth::CloseLocked() {
  if (state_.load(std::memory_order_relaxed) == State::kClosed) {
    return;
  }
  state_.store(State::kClosed, std::memory_order_release);
  closes.fetch_add(1, std::memory_order_relaxed);
  consecutive_failures_.store(0, std::memory_order_relaxed);
  probe_outstanding_ = false;
}

void BackendHealth::OnOpenTimerFired() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_.load(std::memory_order_relaxed) != State::kOpen) {
      return;
    }
    state_.store(State::kHalfOpen, std::memory_order_release);
    half_opens.fetch_add(1, std::memory_order_relaxed);
    probe_outstanding_ = false;
  }
  NotifyConns();  // exactly one of them will claim the probe dial
}

void BackendHealth::NotifyConns() {
  runtime::Scheduler* scheduler = pool_ != nullptr ? pool_->scheduler_ : nullptr;
  if (scheduler == nullptr) {
    return;
  }
  for (PoolConnTask* conn : conns_) {
    scheduler->NotifyRunnable(conn);
  }
}

void BackendHealth::MarkConnsDead() {
  for (PoolConnTask* conn : conns_) {
    conn->OnBreakerOpen();
  }
}

// ---------------------------------------------------------------------------
// PoolConnTask::Run
// ---------------------------------------------------------------------------

runtime::TaskRunResult PoolConnTask::Run(runtime::TaskContext& ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (deadline_fired_.exchange(false, std::memory_order_acq_rel)) {
    armed_deadline_ = 0;  // the wheel entry is spent; re-arm below if needed
  }

  // A response parsed on a previous slice that its reply channel rejected
  // gates all further routing (per-lease ordering).
  if (stalled_reply_) {
    runtime::MsgRef msg = std::move(stalled_reply_);
    if (!RouteReply(std::move(msg), stalled_reply_lease_)) {
      return runtime::TaskRunResult::kIdle;  // reply channel wakes its producer
    }
  }
  if (!DrainFailuresLocked()) {
    return runtime::TaskRunResult::kIdle;
  }

  // Head-of-line response deadline: once the oldest in-flight response is
  // overdue the byte stream's correlation is unknowable (everything behind
  // it is suspect too), so the whole wire is dropped — one expiry event, one
  // breaker failure — and the FIFO fails.
  if (!pending_.empty() && pending_.front().deadline_ns != 0 &&
      MonotonicNanos() >= pending_.front().deadline_ns) {
    request_deadline_expiries.fetch_add(1, std::memory_order_relaxed);
    health_.OnWireFailure();
    Disconnect();
    if (!DrainFailuresLocked()) {
      ArmDeadlineLocked();
      return runtime::TaskRunResult::kIdle;
    }
  }

  if (!EnsureWire()) {
    if (health_.BreakerOpen()) {
      FailFastLocked();
      if (!DrainFailuresLocked()) {
        ArmDeadlineLocked();
        return runtime::TaskRunResult::kIdle;
      }
    }
    ArmDeadlineLocked();
    return runtime::TaskRunResult::kIdle;  // redial ticker re-kicks us
  }

  const uint64_t deadline_base = pool_->config_.request_deadline_ns;

  while (true) {
    bool progress = false;

    // --- read side: free pipeline slots first ------------------------------
    // Replies pipelined by every lease on this wire drain through ONE
    // vectored fill per pass: the adaptive window sizes the scatter read, a
    // short fill proves the wire drained (no trailing would-block probe),
    // and every complete response parsed is routed before the next fill.
    bool fill_drained = false;  // a short fill already proved the wire empty
    while (!rx_.empty() || (!fill_drained && wire_->ReadReady())) {
      // Parse every complete response buffered so far.
      while (!rx_.empty()) {
        if (!parse_msg_) {
          parse_msg_ = msgs_->Acquire();
          parse_msg_->conn_id = wire_->id();
        }
        const runtime::ParseStatus s = deserializer_->Deserialize(rx_, parse_msg_.get());
        if (s == runtime::ParseStatus::kNeedMore) {
          break;
        }
        if (s == runtime::ParseStatus::kError) {
          // Framing lost on a shared byte stream (malformed status line,
          // rejected Content-Length, ...): correlation is unrecoverable.
          // Surface it — count, drop the wire, redial clean — instead of
          // waiting on bytes that will never frame.
          // Disconnect BEFORE counting: tests (and operators) key off the
          // error counter, so the wire drop must already be visible when the
          // counter moves.
          health_.OnWireFailure();
          Disconnect();
          response_parse_errors.fetch_add(1, std::memory_order_relaxed);
          return runtime::TaskRunResult::kMoreWork;
        }
        progress = true;
        runtime::MsgRef msg = std::move(parse_msg_);
        uint64_t lease_id = 0;
        if (!pending_.empty()) {
          lease_id = pending_.front().lease_id;
          pending_.pop_front();
        }
        health_.OnResponseRouted();
        if (!RouteReply(std::move(msg), lease_id)) {
          ArmDeadlineLocked();
          return runtime::TaskRunResult::kIdle;  // backpressure: stop reading
        }
        ctx.ItemDone();
        if (ctx.ShouldYield()) {
          return runtime::TaskRunResult::kMoreWork;
        }
      }
      if (fill_drained || !wire_->ReadReady()) {
        break;
      }
      size_t fill_bytes = 0;
      const runtime::FillOutcome fill = runtime::FillChainVectored(
          rx_, *wire_, fill_window_, read_batch, &fill_bytes);
      if (fill == runtime::FillOutcome::kError) {
        health_.OnWireFailure();
        Disconnect();  // peer closed; redial next run / ticker kick
        return runtime::TaskRunResult::kMoreWork;
      }
      if (fill == runtime::FillOutcome::kNoBuffers) {
        // Buffer pressure: requeue and retry next run. Idling would strand
        // the wire's buffered bytes on edge-notified transports (no new
        // response, no new edge).
        return runtime::TaskRunResult::kMoreWork;
      }
      if (fill == runtime::FillOutcome::kDrained) {
        if (fill_bytes == 0) {
          break;
        }
        fill_drained = true;  // parse the tail, then move to the write side
      }
      progress = true;
    }

    // --- write side: drain the backlog into ONE batch ------------------------
    // Requests from every attached lease coalesce in tx_ and hit the wire as
    // vectored writes: per run slice instead of per message. Flush triggers:
    // the high-water mark (forced, bounds buffer pressure), yield (slice
    // end), and the loop-bottom flush once the channels are drained.
    const size_t depth_cap = pool_->config_.max_pipeline_depth;
    const size_t watermark = pool_->config_.flush_watermark_bytes;
    // The backlog cap bounds tx_ while the wire is backpressured: the forced
    // flush below cannot drain tx_, this loop stops popping, and the pressure
    // propagates to the issuing graphs through their full request channels.
    const size_t backlog_cap =
        watermark > 0 ? watermark : static_cast<size_t>(-1);
    size_t idle_leases = 0;
    while (!leases_.empty() && idle_leases < leases_.size()) {
      // EOFs cost neither a pipeline slot nor tx bytes, and retirement
      // waits on them — so when the caps close the drain, an EOF at a
      // channel head may still pass (a wedged backend must not pin a
      // departing graph behind a full pipeline).
      const bool caps_open =
          pending_.size() < depth_cap && tx_.readable() < backlog_cap;
      if (next_lease_ >= leases_.size()) {
        next_lease_ = 0;
      }
      LeaseSlot& slot = leases_[next_lease_];
      next_lease_ = (next_lease_ + 1) % leases_.size();
      if (!caps_open) {
        runtime::MsgRef* head = slot.requests->Front();
        if (head == nullptr || (*head)->kind != runtime::Msg::Kind::kEof) {
          ++idle_leases;
          continue;
        }
      }
      runtime::MsgRef msg = slot.requests->TryPop();
      if (!msg) {
        ++idle_leases;
        continue;
      }
      idle_leases = 0;
      progress = true;
      if (msg->kind == runtime::Msg::Kind::kEof) {
        // Channel order makes EOF the leg's last message: everything the
        // graph committed is serialized toward the wire, so the lease may
        // detach (LeaseFinished gates retirement stage 1 on this). Lease
        // lifecycle itself stays the registry's job.
        slot.finished = true;
        continue;
      }
      if (!serializer_->Serialize(*msg, tx_).ok()) {
        // Partial serialization would corrupt the shared stream for every
        // lease on this wire: drop it and redial clean.
        Disconnect();
        return runtime::TaskRunResult::kMoreWork;
      }
      ++msgs_since_flush_;
      pending_.push_back(PendingEntry{
          slot.lease_id, deadline_base > 0 ? MonotonicNanos() + deadline_base : 0});
      runtime::AtomicStoreMax(pipeline_hwm, pending_.size());
      requests_forwarded.fetch_add(1, std::memory_order_relaxed);
      ctx.ItemDone();
      if (watermark > 0 && tx_.readable() >= watermark) {
        batch.flushes_forced.fetch_add(1, std::memory_order_relaxed);
        if (!FlushWire()) {
          health_.OnWireFailure();
          Disconnect();
          return runtime::TaskRunResult::kMoreWork;
        }
      }
      if (ctx.ShouldYield()) {
        if (!FlushWire()) {
          health_.OnWireFailure();
          Disconnect();
        }
        return runtime::TaskRunResult::kMoreWork;
      }
    }

    if (!FlushWire()) {
      health_.OnWireFailure();
      Disconnect();
      return runtime::TaskRunResult::kMoreWork;
    }

    if (!progress) {
      break;
    }
  }

  ArmDeadlineLocked();

  // Unsent bytes with a writable transport mean more work now; everything
  // else waits on a notification (wire readable, channel push, drain wake,
  // deadline fire).
  return tx_.empty() ? runtime::TaskRunResult::kIdle : runtime::TaskRunResult::kMoreWork;
}

}  // namespace internal

// Destruction ABANDONS the lease instead of releasing it: the last holder of
// an unreleased lease is a timer closure inside the IoPoller's wheel, which
// may be destroyed during platform teardown after the owning pool is gone.
// Every live path releases explicitly — GraphBuilder::ReleaseAllLegs on
// failure, the registry's on_unwatch hook at retirement.
PoolLease::~PoolLease() = default;

PoolLease& PoolLease::operator=(PoolLease&& other) noexcept {
  if (this != &other) {
    pool_ = other.pool_;
    id_ = other.id_;
    stripe_ = other.stripe_;
    conn_index_ = std::move(other.conn_index_);
    other.pool_ = nullptr;
    other.id_ = 0;
    other.stripe_ = 0;
    other.conn_index_.clear();
  }
  return *this;
}

BackendPool::BackendPool(BackendPoolConfig config) : config_(std::move(config)) {
  if (config_.conns_per_backend == 0) {
    config_.conns_per_backend = 1;
  }
  if (config_.max_pipeline_depth == 0) {
    config_.max_pipeline_depth = 1;
  }
  if (config_.breaker_failure_threshold == 0) {
    config_.breaker_failure_threshold = 1;
  }
}

BackendPool::~BackendPool() {
  for (const RedialTicker& ticker : redial_tickers_) {
    ticker.wheel->CancelPeriodic(ticker.token);
  }
  for (const auto& stripe : stripes_) {
    for (const StripeBackend& backend : stripe->backends) {
      backend.health->CancelTimer();
    }
  }
}

Status BackendPool::EnsureStarted(runtime::PlatformEnv& env) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_.load(std::memory_order_relaxed)) {
    return OkStatus();
  }
  if (config_.ports.empty()) {
    return InvalidArgument("BackendPool: no backend ports");
  }
  if (config_.make_serializer == nullptr || config_.make_deserializer == nullptr) {
    return InvalidArgument("BackendPool: missing codec factories");
  }
  scheduler_ = env.scheduler;
  const size_t n_stripes =
      config_.io_shards > 0 ? config_.io_shards : env.io_shard_count();
  stripes_.reserve(n_stripes);
  for (size_t s = 0; s < n_stripes; ++s) {
    auto stripe = std::make_unique<Stripe>();
    runtime::IoPoller* poller = env.shard_poller(s);
    stripe->backends.reserve(config_.ports.size());
    for (size_t b = 0; b < config_.ports.size(); ++b) {
      StripeBackend backend;
      backend.port = config_.ports[b];
      backend.health = std::make_unique<internal::BackendHealth>();
      for (size_t c = 0; c < config_.conns_per_backend; ++c) {
        backend.conns.push_back(std::make_unique<internal::PoolConnTask>(
            "pool-" + std::to_string(config_.ports[b]) + "-s" + std::to_string(s) +
                "-" + std::to_string(c),
            this, config_.ports[b], env, poller, s, *backend.health));
      }
      std::vector<internal::PoolConnTask*> conn_ptrs;
      conn_ptrs.reserve(backend.conns.size());
      for (const auto& conn : backend.conns) {
        conn_ptrs.push_back(conn.get());
      }
      backend.health->Init(this, &poller->wheel(), std::move(conn_ptrs));
      backend.active_leases.assign(backend.conns.size(), 0);
      stripe->backends.push_back(std::move(backend));
    }
    stripes_.push_back(std::move(stripe));
  }
  // Layout is complete: publish. Acquire's lock-free started_ check pairs
  // with this release store, so a racing acquirer sees the full stripes_.
  started_.store(true, std::memory_order_release);

  // Initial dials run on worker threads; each stripe's redial ticker — a
  // periodic timer on that stripe's shard wheel, paced at the redial
  // interval — keeps kicking any connection that is down until its backend
  // answers (reconnect-after-close works the same way). The periodics hold
  // only `this`: they are cancelled in ~BackendPool, and the pool outlives
  // the pollers' last sweep by contract.
  runtime::Scheduler* scheduler = scheduler_;
  for (size_t s = 0; s < stripes_.size(); ++s) {
    for (StripeBackend& backend : stripes_[s]->backends) {
      for (auto& conn : backend.conns) {
        scheduler->NotifyRunnable(conn.get());
      }
    }
    runtime::TimerWheel& wheel = env.shard_poller(s)->wheel();
    const uint64_t ticker_token =
        wheel.AddPeriodic(config_.redial_interval_ns, [this, scheduler, s]() {
          for (StripeBackend& backend : stripes_[s]->backends) {
            for (auto& conn : backend.conns) {
              if (conn->WantsRedialKick() &&
                  conn->sched_state.load(std::memory_order_acquire) ==
                      runtime::Task::SchedState::kIdle) {
                scheduler->NotifyRunnable(conn.get());
              }
            }
          }
          return false;  // permanent until cancelled
        });
    redial_tickers_.push_back({&wheel, ticker_token});
  }
  return OkStatus();
}

bool BackendPool::BackendBreakerOpen(size_t backend_index) const {
  if (!started_.load(std::memory_order_acquire)) {
    return false;
  }
  if (backend_index >= config_.ports.size()) {
    return false;
  }
  for (const auto& stripe : stripes_) {
    if (!stripe->backends[backend_index].health->BreakerOpen()) {
      return false;
    }
  }
  return true;
}

Result<PoolLease> BackendPool::Acquire(size_t preferred_stripe) {
  if (!started_.load(std::memory_order_acquire)) {
    return FailedPrecondition("BackendPool: not started");
  }
  // The hot path locks nothing but the home stripe's mutex.
  const size_t stripe_index = preferred_stripe % stripes_.size();
  Stripe& stripe = *stripes_[stripe_index];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  PoolLease lease;
  lease.pool_ = this;
  lease.id_ = next_lease_id_.fetch_add(1, std::memory_order_relaxed);
  lease.stripe_ = stripe_index;
  lease.conn_index_.reserve(stripe.backends.size());
  bool waited = false;
  for (StripeBackend& backend : stripe.backends) {
    // Guard the cursor before use: a layout that shrank (or a cursor that
    // drifted) must never index past the slot vector or pin placement to a
    // stale position.
    if (backend.next_rr >= backend.conns.size()) {
      backend.next_rr = 0;
    }
    // One round-robin sweep from the cursor, preferring (0) connected wires,
    // then (1) wires still dialling (requests queue until the dial lands),
    // then (2) dead wires (the lease still queues for the redial) — so a
    // redial-lagged slot never captures placement while a live sibling sits
    // idle.
    size_t slot = 0;
    int slot_tier = 3;
    for (size_t t = 0; t < backend.conns.size(); ++t) {
      const size_t cand = (backend.next_rr + t) % backend.conns.size();
      int tier = 2;
      switch (backend.conns[cand]->wire_state()) {
        case internal::PoolConnTask::WireState::kConnected: tier = 0; break;
        case internal::PoolConnTask::WireState::kNeverTried: tier = 1; break;
        case internal::PoolConnTask::WireState::kDead: tier = 2; break;
      }
      if (tier < slot_tier) {
        slot = cand;
        slot_tier = tier;
        if (tier == 0) {
          break;  // first connected candidate in rr order wins
        }
      }
    }
    backend.next_rr = (slot + 1) % backend.conns.size();
    if (slot_tier != 0) {
      waited = true;  // requests queue until the redial ticker succeeds
    }
    ++backend.active_leases[slot];
    lease.conn_index_.push_back(slot);
  }
  leases_acquired_.fetch_add(1, std::memory_order_relaxed);
  if (waited) {
    lease_waits_.fetch_add(1, std::memory_order_relaxed);
  }
  return lease;
}

void BackendPool::Attach(const PoolLease& lease, size_t backend_index,
                         runtime::Channel* requests, runtime::Channel* replies) {
  FLICK_CHECK(lease.valid() && lease.pool_ == this);
  FLICK_CHECK(lease.stripe_ < stripes_.size());
  Stripe& stripe = *stripes_[lease.stripe_];
  FLICK_CHECK(backend_index < stripe.backends.size());
  const size_t slot = lease.conn_index_[backend_index];
  stripe.backends[backend_index].conns[slot]->AttachLease(lease.id_, requests,
                                                          replies, scheduler_);
}

bool BackendPool::LeaseFinished(const PoolLease& lease) const {
  if (!lease.valid() || lease.pool_ != this) {
    return true;  // released (or foreign): nothing left to wait for
  }
  const Stripe& stripe = *stripes_[lease.stripe_];
  for (size_t b = 0; b < lease.conn_index_.size(); ++b) {
    if (!stripe.backends[b].conns[lease.conn_index_[b]]->LeaseFinished(lease.id_)) {
      return false;
    }
  }
  return true;
}

void BackendPool::Release(PoolLease& lease) {
  if (!lease.valid() || lease.pool_ != this) {
    return;
  }
  Stripe& stripe = *stripes_[lease.stripe_];
  for (size_t b = 0; b < lease.conn_index_.size(); ++b) {
    stripe.backends[b].conns[lease.conn_index_[b]]->DetachLease(lease.id_);
  }
  {
    // Return the slots to circulation; the wires stay up and keep their
    // place in the stripe (the next lease reuses them without a dial).
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (size_t b = 0; b < lease.conn_index_.size(); ++b) {
      uint32_t& active = stripe.backends[b].active_leases[lease.conn_index_[b]];
      if (active > 0) {
        --active;
      }
    }
  }
  leases_released_.fetch_add(1, std::memory_order_relaxed);
  lease.pool_ = nullptr;
  lease.id_ = 0;
  lease.stripe_ = 0;
  lease.conn_index_.clear();
}

size_t BackendPool::stripes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stripes_.size();
}

size_t BackendPool::live_connections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t live = 0;
  for (const auto& stripe : stripes_) {
    for (const StripeBackend& backend : stripe->backends) {
      for (const auto& conn : backend.conns) {
        live += conn->connected() ? 1 : 0;
      }
    }
  }
  return live;
}

std::vector<uint32_t> BackendPool::SlotActiveLeases(size_t backend_index,
                                                    size_t stripe_index) const {
  if (!started() || stripe_index >= stripes_.size()) {
    return {};
  }
  const Stripe& stripe = *stripes_[stripe_index];
  if (backend_index >= stripe.backends.size()) {
    return {};
  }
  std::lock_guard<std::mutex> lock(stripe.mutex);
  return stripe.backends[backend_index].active_leases;
}

void BackendPool::CloseConnectionForTest(size_t backend_index, size_t slot,
                                         size_t stripe_index,
                                         uint64_t redial_hold_ns) {
  FLICK_CHECK(started() && stripe_index < stripes_.size());
  Stripe& stripe = *stripes_[stripe_index];
  FLICK_CHECK(backend_index < stripe.backends.size());
  FLICK_CHECK(slot < stripe.backends[backend_index].conns.size());
  stripe.backends[backend_index].conns[slot]->ForceDropWireForTest(redial_hold_ns);
}

BackendPoolStats BackendPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  BackendPoolStats s;
  s.leases_acquired = leases_acquired_.load(std::memory_order_relaxed);
  s.leases_released = leases_released_.load(std::memory_order_relaxed);
  s.lease_waits = lease_waits_.load(std::memory_order_relaxed);
  s.stripes = stripes_.size();
  for (const auto& stripe : stripes_) {
    for (const StripeBackend& backend : stripe->backends) {
      s.breaker_opens += backend.health->opens.load(std::memory_order_relaxed);
      s.breaker_half_opens += backend.health->half_opens.load(std::memory_order_relaxed);
      s.breaker_closes += backend.health->closes.load(std::memory_order_relaxed);
      for (const auto& conn : backend.conns) {
        s.conns_dialed += conn->dials_ok.load(std::memory_order_relaxed);
        s.dial_failures += conn->dial_failures.load(std::memory_order_relaxed);
        s.reconnects += conn->reconnects.load(std::memory_order_relaxed);
        s.disconnects += conn->disconnects.load(std::memory_order_relaxed);
        s.requests_forwarded += conn->requests_forwarded.load(std::memory_order_relaxed);
        s.responses_routed += conn->responses_routed.load(std::memory_order_relaxed);
        s.responses_dropped += conn->responses_dropped.load(std::memory_order_relaxed);
        s.response_parse_errors +=
            conn->response_parse_errors.load(std::memory_order_relaxed);
        s.request_deadline_expiries +=
            conn->request_deadline_expiries.load(std::memory_order_relaxed);
        s.requests_failed += conn->requests_failed.load(std::memory_order_relaxed);
        const uint64_t hwm = conn->pipeline_hwm.load(std::memory_order_relaxed);
        if (hwm > s.max_pipeline_depth) {
          s.max_pipeline_depth = hwm;
        }
        s.writev_calls += conn->batch.writev_calls.load(std::memory_order_relaxed);
        s.flushes_forced += conn->batch.flushes_forced.load(std::memory_order_relaxed);
        const uint64_t batch_hwm =
            conn->batch.msgs_per_writev.load(std::memory_order_relaxed);
        if (batch_hwm > s.msgs_per_writev) {
          s.msgs_per_writev = batch_hwm;
        }
        s.readv_calls += conn->read_batch.readv_calls.load(std::memory_order_relaxed);
        s.fills_short += conn->read_batch.fills_short.load(std::memory_order_relaxed);
        s.reads_legacy_equivalent +=
            conn->read_batch.reads_legacy_equivalent.load(std::memory_order_relaxed);
        const uint64_t fill_hwm =
            conn->read_batch.bytes_per_readv.load(std::memory_order_relaxed);
        if (fill_hwm > s.bytes_per_readv) {
          s.bytes_per_readv = fill_hwm;
        }
        s.live_connections += conn->connected() ? 1 : 0;
      }
    }
  }
  return s;
}

}  // namespace flick::services
