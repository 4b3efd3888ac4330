#include "services/service_util.h"

#include "services/backend_pool.h"
#include "services/graph_builder.h"

namespace flick::services {

void WireOptions::ApplyTo(BackendPoolConfig& cfg) const {
  cfg.conns_per_backend = conns_per_backend;
  cfg.max_pipeline_depth = max_pipeline_depth;
  cfg.flush_watermark_bytes = flush_watermark_bytes;
  cfg.fill_window = fill_window;
  cfg.io_shards = io_shards;
  cfg.request_deadline_ns = request_deadline_ns;
  cfg.breaker_failure_threshold = breaker_failure_threshold;
  cfg.breaker_open_ns = breaker_open_ns;
}

GraphBuilder& WireOptions::ApplyTo(GraphBuilder& b) const {
  b.FlushWatermark(flush_watermark_bytes).FillWindow(fill_window);
  if (idle_timeout_ns != kInheritLifetimeNs) {
    b.IdleTimeout(idle_timeout_ns);
  }
  if (header_deadline_ns != kInheritLifetimeNs) {
    b.HeaderDeadline(header_deadline_ns);
  }
  return b;
}

}  // namespace flick::services
