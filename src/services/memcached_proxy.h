// Memcached proxy (§6.1, Figure 3b; Listing 1 §4.1 variant).
//
// Per-client-connection task graph with fan-out > 1: requests are hash-
// partitioned over the backends ("Requests are forwarded based on hash
// partitioning to a set of Memcached servers, each storing a disjoint
// section of the key space"); responses from any backend return to the
// client. Parsing uses the projected routing unit (opcode + key only) on the
// request path — the generated-parser optimisation of §4.2.
//
// Backend transport comes in two modes:
//   * kPooled (default): all client graphs share one BackendPool —
//     conns_per_backend persistent pipelined connections per backend,
//     claimed via a PoolLease. Backend fd count is independent of client
//     concurrency.
//   * kPerClient: the paper's original shape — one dedicated connection per
//     backend per client graph (Figure 3b), dialled by the builder's FanOut.
//
// Orthogonally, Options::cache enables LOOK-ASIDE CACHE MODE (the classic
// memcached deployment shape, served in-path): GET/GETK hits are answered
// from the platform StateStore without acquiring a pool lease or touching a
// backend; misses are proxied as usual and populate the store on the
// response path under the invalidate-wins epoch protocol
// (StateStore::InvalidationEpoch / PutIfFresh); SET and other keyed writes
// write through to the backend and invalidate the cached entry. When a
// backend leg fails a GET outright (kError from the health plane), cache
// mode degrades to the last-known-good copy (CacheOptions::serve_stale).
// Counters land in RegistryStats{cache_hits, cache_misses,
// cache_invalidations, cache_stale_populates_dropped, cache_stale_served}.
#ifndef FLICK_SERVICES_MEMCACHED_PROXY_H_
#define FLICK_SERVICES_MEMCACHED_PROXY_H_

#include <atomic>
#include <memory>
#include <vector>

#include "runtime/platform.h"
#include "services/backend_pool.h"
#include "services/graph_builder.h"
#include "services/service_util.h"

namespace flick::services {

class MemcachedProxyService : public runtime::ServiceProgram {
 public:
  struct CacheOptions {
    // Serve GET/GETK from the StateStore look-aside (see the header comment).
    // Off by default: pooled and per-client proxy modes are unchanged.
    bool enabled = false;
    // StateStore dictionary the cached entries live in. Capacity is the
    // platform's PlatformConfig::state_entries_per_dict (FIFO eviction).
    std::string dict = "memcached-cache";
    // Responses with values larger than this are proxied but never cached.
    size_t max_value_bytes = 64 * 1024;
    // Degrade-to-cache: keep a last-known-good copy of every populated
    // value in `dict + "/stale"` (plain Put — deliberately exempt from the
    // invalidate-wins protocol) and serve it when a backend leg FAILS a GET
    // (deadline expiry, open circuit, lost wire). Stale by design: outage
    // availability over freshness. Counted in
    // RegistryStats::cache_stale_served.
    bool serve_stale = true;
  };

  struct Options {
    // The shared wire-policy knobs (transport mode, pooling, batching,
    // sharding, lifetime windows) — see services::WireOptions.
    WireOptions wire;
    // Look-aside cache mode, orthogonal to the wire mode.
    CacheOptions cache;
  };

  explicit MemcachedProxyService(std::vector<uint16_t> backend_ports);
  MemcachedProxyService(std::vector<uint16_t> backend_ports, Options options);

  const char* name() const override { return "memcached-proxy"; }
  void OnConnection(std::unique_ptr<Connection> conn, runtime::PlatformEnv& env) override;

  uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }
  size_t live_graphs() const { return registry_.live_graphs(); }
  const GraphRegistry& registry() const { return registry_; }

  // Null in kPerClient mode.
  const BackendPool* pool() const { return pool_.get(); }
  // Mutable view for test hooks (CloseConnectionForTest).
  BackendPool* mutable_pool() { return pool_.get(); }

 private:
  NodeRef DispatchStage(GraphBuilder& b, size_t fan_out);
  NodeRef CachingDispatchStage(GraphBuilder& b, size_t fan_out,
                               runtime::StateStore* store);

  std::vector<uint16_t> backends_;
  Options options_;
  std::unique_ptr<BackendPool> pool_;
  std::atomic<uint64_t> requests_{0};
  GraphRegistry registry_;
};

}  // namespace flick::services

#endif  // FLICK_SERVICES_MEMCACHED_PROXY_H_
