// Shared backend connection pool with request pipelining.
//
// The paper's middlebox scenarios (Figure 3b, Listing 1) dispatch each client
// request to a set of backends. Dedicated legs — one dialled connection per
// backend per client graph — make backend fd count and dial latency scale
// with client concurrency. A BackendPool inverts that: each (pool, backend)
// pair keeps a fixed set of persistent, multiplexed connections; client
// graphs claim a lightweight PoolLease instead of dialling, and requests
// from many graphs are pipelined onto one wire. Responses are correlated
// back to the issuing graph through a per-connection FIFO of pending lease
// ids — valid because both supported protocols answer in request order on a
// single connection (memcached binary responses are FIFO; HTTP/1.1 pipelines
// via content-length framing, which is why the pooled HTTP return path must
// parse responses instead of raw-forwarding them).
//
// Integration: services never touch this class's channel plumbing directly.
// GraphBuilder::FanOutPooled / PoolLeg declare pooled legs; Launch() binds
// the legs' edge channels to the lease and GraphRegistry detaches the lease
// at graph retirement (stage 1, before the idle sweep, so no external
// producer can notify a graph task once destruction is possible).
//
// Threading: every pooled connection is driven by one PoolConnTask scheduled
// like any other task. All per-connection state is guarded by a per-
// connection mutex; attach/detach (poller thread) and Run (worker threads)
// serialise on it. Wire readability wakes the task through the normal poller
// watch; a per-stripe periodic timer on the shard's wheel ticks disconnected
// connections so a backend that comes back is redialled without client
// involvement.
//
// Sharding: under a sharded IO plane the pool is STRIPED — one stripe per IO
// shard, each with its own slice of wires (watched by that shard's poller,
// redialled by that shard's wheel ticker), its own mutex and its own round-robin
// cursor. A graph launched on shard k leases from stripe k, so the hot
// acquire/release path never contends with other shards. The global mutex
// survives only for the cold path: start and layout-wide folds (stats,
// live_connections).
#ifndef FLICK_SERVICES_BACKEND_POOL_H_
#define FLICK_SERVICES_BACKEND_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/codec.h"
#include "runtime/platform.h"
#include "services/service_util.h"  // BackendMode, WireOptions

namespace flick::services {

class BackendPool;

namespace internal {
class PoolConnTask;
class BackendHealth;
}  // namespace internal

struct BackendPoolConfig {
  std::vector<uint16_t> ports;

  // Multiplexed connections kept per backend PER STRIPE. Backend connection
  // count is ports.size() * conns_per_backend * stripes, independent of
  // client concurrency.
  size_t conns_per_backend = 1;

  // Stripes the pool's wires are partitioned into — one per IO shard, each
  // with its own lease mutex and round-robin cursor, its connections watched
  // by that shard's poller. The hot lease path (Acquire/Release from a
  // graph on shard k) touches only stripe k's lock. 0 = derive from the
  // platform's shard count at EnsureStarted.
  size_t io_shards = 0;

  // In-flight (sent, unanswered) requests allowed per connection. When the
  // cap is hit the connection stops draining request channels; channel
  // backpressure propagates to the issuing graphs.
  size_t max_pipeline_depth = 256;

  // Backlog bytes a connection batches before a forced mid-slice flush.
  // Requests drained in one run slice coalesce into one vectored write (the
  // pooled wire is where many graphs' small writes pile up); the watermark
  // bounds buffer-pool pressure. 1 = write per message (the pre-batching
  // shape, kept for the fig5 comparison series); 0 = slice-end flushes only.
  size_t flush_watermark_bytes = runtime::kDefaultFlushWatermark;

  // Cap on the adaptive rx fill window: pool buffers one vectored read may
  // span when draining pipelined replies (the read-side mirror of the flush
  // watermark; 1 = legacy one-buffer reads). An idle wire holds one buffer;
  // a hot one amortises up to this many buffers per transport read.
  size_t fill_window = runtime::kDefaultFillWindow;

  // Minimum spacing between redial attempts for a disconnected connection.
  uint64_t redial_interval_ns = 1'000'000;

  // --- health plane --------------------------------------------------------

  // Response deadline per in-flight request, armed on the stripe's shard
  // wheel when the request enters the wire FIFO. Expiry drops the wire (the
  // byte stream's correlation is unknowable once the head response is
  // overdue), fails every in-flight entry with a kError reply, and counts a
  // breaker failure. 0 disables (the raw-config default, so channel-level
  // tests that deliberately park requests keep their semantics; services arm
  // it via WireOptions).
  uint64_t request_deadline_ns = 0;

  // Circuit breaker per (backend, stripe): consecutive failures — failed
  // dials, lost wires, deadline expiries, parse errors — before the circuit
  // opens. While open every dial is refused and queued requests fail fast;
  // after breaker_open_ns one half-open probe dial is allowed, its outcome
  // closing or re-opening the circuit. This is the single source of truth
  // for "this backend is down" (it replaced the per-conn 3-strikes counter).
  uint32_t breaker_failure_threshold = 3;
  uint64_t breaker_open_ns = 100'000'000;

  // Wire codecs: requests out, responses in. The deserializer must frame
  // complete responses (response correlation is per-message).
  std::function<std::unique_ptr<runtime::Serializer>()> make_serializer;
  std::function<std::unique_ptr<runtime::Deserializer>()> make_deserializer;
};

// Pool health, aggregated over all connections. Monotonic except where noted.
struct BackendPoolStats {
  uint64_t conns_dialed = 0;        // successful dials, including redials
  uint64_t dial_failures = 0;
  uint64_t reconnects = 0;          // dials after a lost connection
  uint64_t disconnects = 0;         // wire losses (peer close / wire error)
  uint64_t leases_acquired = 0;
  uint64_t leases_released = 0;
  uint64_t lease_waits = 0;         // leases that landed on a disconnected conn
  uint64_t requests_forwarded = 0;
  uint64_t responses_routed = 0;
  uint64_t responses_dropped = 0;   // lease already detached, or wire lost
  uint64_t response_parse_errors = 0;  // malformed responses that cost a wire
  uint64_t max_pipeline_depth = 0;  // high-water in-flight requests (any conn)
  uint64_t writev_calls = 0;        // vectored transport writes issued
  uint64_t flushes_forced = 0;      // flushes triggered by the high-water mark
  uint64_t msgs_per_writev = 0;     // high-water requests coalesced per flush
  uint64_t readv_calls = 0;         // vectored transport reads that moved bytes
  uint64_t bytes_per_readv = 0;     // high-water bytes moved by one fill
  uint64_t fills_short = 0;         // fills that proved the wire drained
  uint64_t reads_legacy_equivalent = 0;  // reads the per-buffer path would issue
  uint64_t stripes = 0;             // layout: stripes the pool was started with
  uint64_t live_connections = 0;    // snapshot, not monotonic

  // --- health plane --------------------------------------------------------
  uint64_t breaker_opens = 0;       // closed/half-open -> open transitions
  uint64_t breaker_half_opens = 0;  // open -> half-open (probe window armed)
  uint64_t breaker_closes = 0;      // half-open -> closed (probe succeeded)
  uint64_t request_deadline_expiries = 0;  // deadline events (one per wire drop)
  uint64_t requests_failed = 0;     // kError replies delivered to legs
};

// Move-only claim on one pooled connection per backend. Handed out by
// BackendPool::Acquire (via GraphBuilder::FanOutPooled) and returned either
// by GraphRegistry at graph retirement or by the builder's failure cleanup —
// never by closing the underlying wire. Destruction does NOT auto-release
// (the pool may already be gone during platform teardown); holders release
// explicitly while the pool is alive.
class PoolLease {
 public:
  PoolLease() = default;
  ~PoolLease();

  PoolLease(PoolLease&& other) noexcept { *this = std::move(other); }
  PoolLease& operator=(PoolLease&& other) noexcept;
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;

  bool valid() const { return pool_ != nullptr; }
  uint64_t id() const { return id_; }
  size_t backend_count() const { return conn_index_.size(); }

  // The stripe every claimed slot of this lease lives in: the acquiring
  // graph's IO shard, modulo the stripe count.
  size_t stripe() const { return stripe_; }

 private:
  friend class BackendPool;

  BackendPool* pool_ = nullptr;
  uint64_t id_ = 0;
  size_t stripe_ = 0;
  std::vector<size_t> conn_index_;  // per backend: claimed slot within stripe_
};

class BackendPool {
 public:
  explicit BackendPool(BackendPoolConfig config);
  ~BackendPool();

  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  // Idempotent. Creates the per-connection tasks, registers the redial
  // ticker and kicks the initial dials (performed on worker threads). The
  // pool must be destroyed only after the platform has stopped — the same
  // lifetime contract services already have with GraphRegistry.
  Status EnsureStarted(runtime::PlatformEnv& env);

  // Claims one connection per backend within stripe `preferred_stripe` (the
  // caller's IO shard, modulo the stripe count; GraphBuilder passes
  // env.io_shard). Every slot is shared, so the home stripe always has one:
  // placement is round-robin, preferring connected wires over dead ones.
  // Fails only if the pool was never started; a temporarily disconnected
  // backend still yields a lease (requests queue until redial).
  Result<PoolLease> Acquire(size_t preferred_stripe = 0);

  // Binds one backend's slice of `lease` to a graph's edge channels:
  // `requests` (graph -> pool) and `replies` (pool -> graph). Must happen
  // before the graph's IO is activated. Called by GraphBuilder::Launch.
  void Attach(const PoolLease& lease, size_t backend_index,
              runtime::Channel* requests, runtime::Channel* replies);

  // True once every attached leg of `lease` has consumed its EOF — the
  // request channel is FIFO, so everything the graph committed before EOF is
  // already serialized toward the wire (flushing continues independently of
  // the lease). Already-detached legs count as finished. The GraphRegistry
  // gates retirement-stage-1 detach on this so a lease is never returned
  // while committed requests still sit in the graph's channels — which is
  // also the contract pooled legs impose on services: the graph must
  // propagate EOF into every pool sink (all builder services' dispatch
  // stages do) or retirement stalls.
  bool LeaseFinished(const PoolLease& lease) const;

  // Detaches every attached leg and invalidates the lease. Idempotent. After
  // Release returns, the pool no longer reads from or writes to any channel
  // of the leasing graph. In-flight responses for the lease are dropped on
  // arrival (the FIFO correlation slot is kept so later responses still
  // route correctly).
  void Release(PoolLease& lease);

  // True when EVERY stripe's circuit breaker for `backend_index` is open —
  // i.e. no stripe will dial or serve this backend right now. Services use
  // it to drop open-circuit backends from rotation (http_lb) or to trigger
  // degrade paths (memcached serve-stale). Lock-free (atomic state reads).
  bool BackendBreakerOpen(size_t backend_index) const;

  size_t backend_count() const { return config_.ports.size(); }
  size_t conns_per_backend() const { return config_.conns_per_backend; }
  // Stripes the pool was started with (0 before EnsureStarted).
  size_t stripes() const;
  bool started() const { return started_.load(std::memory_order_acquire); }
  size_t live_connections() const;
  BackendPoolStats stats() const;

  // --- test/ops introspection ------------------------------------------------

  // Live-lease count per slot of one backend's stripe (placement fairness /
  // dead-slot-skew checks).
  std::vector<uint32_t> SlotActiveLeases(size_t backend_index, size_t stripe = 0) const;

  // Forcibly drops one wire as a lost wire would — every in-flight request
  // on it is answered kError — and defers its redial by `redial_hold_ns`.
  // Breaker accounting is untouched. Test hook for constructing mixed
  // live/dead slot states deterministically.
  void CloseConnectionForTest(size_t backend_index, size_t slot, size_t stripe = 0,
                              uint64_t redial_hold_ns = 0);

 private:
  friend class internal::PoolConnTask;
  friend class internal::BackendHealth;

  // One backend's slice of one stripe. All fields are guarded by the owning
  // stripe's mutex except `conns`, whose LAYOUT is immutable after
  // EnsureStarted (the tasks themselves carry their own locks/atomics), and
  // `health`, which carries its own leaf lock.
  struct StripeBackend {
    uint16_t port = 0;
    std::vector<std::unique_ptr<internal::PoolConnTask>> conns;
    std::unique_ptr<internal::BackendHealth> health;  // circuit breaker
    size_t next_rr = 0;  // round-robin lease placement cursor
    std::vector<uint32_t> active_leases;  // per slot
  };

  // One IO shard's share of the pool: its own lock and cursors, its wires
  // watched by that shard's poller. The hot lease path locks exactly one of
  // these; the global mutex_ survives only for start and layout reads.
  struct Stripe {
    mutable std::mutex mutex;
    std::vector<StripeBackend> backends;  // one per backend port
  };

  BackendPoolConfig config_;

  mutable std::mutex mutex_;  // guards EnsureStarted + cold-path layout
  std::atomic<bool> started_{false};  // release-published after stripes_ built
  std::vector<std::unique_ptr<Stripe>> stripes_;

  // Per-stripe redial periodics on the stripes' shard wheels; cancelled at
  // destruction (the pollers outlive the pool by contract, so the wheels are
  // still valid then).
  struct RedialTicker {
    runtime::TimerWheel* wheel;
    uint64_t token;
  };
  std::vector<RedialTicker> redial_tickers_;

  runtime::Scheduler* scheduler_ = nullptr;

  std::atomic<uint64_t> next_lease_id_{1};
  std::atomic<uint64_t> leases_acquired_{0};
  std::atomic<uint64_t> leases_released_{0};
  std::atomic<uint64_t> lease_waits_{0};
};

}  // namespace flick::services

#endif  // FLICK_SERVICES_BACKEND_POOL_H_
