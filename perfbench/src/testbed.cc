#include "testbed.h"

#include <chrono>
#include <thread>

#include "base/time_util.h"
#include "generator.h"
#include "services/dsl_service.h"
#include "services/http_lb.h"
#include "services/memcached_proxy.h"

namespace perfbench {

using flick::MonotonicNanos;
namespace services = flick::services;

flick::Result<std::unique_ptr<Testbed>> Testbed::Start(const WorkloadSpec& spec, bool traced,
                                                       double* setup_seconds) {
  std::unique_ptr<Testbed> tb(new Testbed(spec));
  // Backends are built and loaded outside the timed section: filling their
  // stores is the harness's work, not the program's.
  for (int i = 0; i < 2; ++i) {
    switch (spec.proto) {
      case Proto::kMemcached:
        tb->mc_backends_.push_back(
            std::make_unique<flick::load::MemcachedBackend>(&tb->harness_, 0));
        break;
      case Proto::kResp:
        tb->resp_backends_.push_back(
            std::make_unique<flick::load::RespBackend>(&tb->harness_, 0));
        break;
      case Proto::kHttp:
        tb->http_backends_.push_back(
            std::make_unique<flick::load::HttpBackend>(&tb->harness_, 0, HttpBody()));
        break;
    }
  }
  for (uint32_t k = 0; k < spec.keys; ++k) {
    const std::string key = KeyName(k);
    const std::string value = ValueFor(k, 0);
    for (auto& b : tb->mc_backends_) {
      b->Preload(key, value);
    }
    for (auto& b : tb->resp_backends_) {
      b->Preload(key, value);
    }
  }
  const uint64_t t0 = MonotonicNanos();
  if (flick::Status s = tb->StartAll(traced); !s.ok()) {
    return s;
  }
  if (flick::Status s = ProbeOnce(spec, tb->port_); !s.ok()) {
    return s;
  }
  *setup_seconds = static_cast<double>(MonotonicNanos() - t0) * 1e-9;
  return flick::Result<std::unique_ptr<Testbed>>(std::move(tb));
}

flick::Status Testbed::StartAll(bool traced) {
  // Backends listen on ephemeral ports; the tap reports which.
  const auto started = [this](flick::Status s) {
    if (s.ok()) {
      backend_ports_.push_back(harness_.last_port());
    }
    return s;
  };
  for (auto& b : mc_backends_) {
    FLICK_RETURN_IF_ERROR(started(b->Start()));
  }
  for (auto& b : resp_backends_) {
    FLICK_RETURN_IF_ERROR(started(b->Start()));
  }
  for (auto& b : http_backends_) {
    FLICK_RETURN_IF_ERROR(started(b->Start()));
  }

  if (traced) {
    timing_ = std::make_unique<TimingTransport>(&sut_kernel_);
    sut_ = std::make_unique<PortTap>(timing_.get());
  } else {
    sut_ = std::make_unique<PortTap>(&sut_kernel_);
  }
  flick::runtime::PlatformConfig cfg;
  cfg.scheduler.num_workers = 2;
  cfg.io_shards = 1;
  cfg.state_entries_per_dict = spec_.cache_entries;
  platform_ = std::make_unique<flick::runtime::Platform>(cfg, sut_.get());

  services::WireOptions wire;
  wire.mode = services::BackendMode::kPooled;
  wire.conns_per_backend = 2;
  switch (spec_.proto) {
    case Proto::kMemcached: {
      services::MemcachedProxyService::Options opts;
      opts.wire = wire;
      opts.cache.enabled = spec_.cache;
      auto svc = std::make_unique<services::MemcachedProxyService>(backend_ports_, opts);
      registry_ = &svc->registry();
      pool_ = svc->pool();
      service_ = std::move(svc);
      break;
    }
    case Proto::kResp: {
      services::DslService::Options opts;
      opts.wire = wire;
      auto svc = services::DslService::Create(services::kRespRouterSource, "resp_router",
                                              backend_ports_, opts);
      if (!svc.ok()) {
        return svc.status();
      }
      registry_ = &(*svc)->registry();
      pool_ = (*svc)->pool();
      service_ = std::move(svc).value();
      break;
    }
    case Proto::kHttp: {
      services::HttpLbService::Options opts;
      opts.wire = wire;
      auto svc = std::make_unique<services::HttpLbService>(backend_ports_, opts);
      registry_ = &svc->registry();
      pool_ = svc->pool();
      service_ = std::move(svc);
      break;
    }
  }
  if (pool_ == nullptr) {
    return flick::Internal("service has no backend pool");
  }
  FLICK_RETURN_IF_ERROR(platform_->RegisterProgram(0, service_.get()));
  port_ = sut_->last_port();
  platform_->Start();
  return flick::OkStatus();
}

uint64_t Testbed::DrainGraphs() {
  const uint64_t deadline = MonotonicNanos() + 5'000'000'000ULL;
  while (true) {
    const services::RegistryStats s = registry_->stats();
    const uint64_t live = s.graphs_adopted - s.graphs_retired;
    if (live == 0 || MonotonicNanos() > deadline) {
      return live;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void Testbed::Stop() {
  if (platform_ != nullptr) {
    platform_->Stop();
  }
  service_.reset();
  platform_.reset();
  for (auto& b : mc_backends_) {
    b->Stop();
  }
  for (auto& b : resp_backends_) {
    b->Stop();
  }
  for (auto& b : http_backends_) {
    b->Stop();
  }
}

Testbed::~Testbed() { Stop(); }

}  // namespace perfbench
