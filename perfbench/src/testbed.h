// The system under test for one workload, over KernelTransport on loopback:
// two backends from src/load/backends, one runtime::Platform (2 workers,
// 1 IO shard) and the workload's service on pooled wires
// (conns_per_backend = 2). Ports are ephemeral, so back-to-back runs never
// collide.
#ifndef PERFBENCH_TESTBED_H_
#define PERFBENCH_TESTBED_H_

#include <memory>
#include <vector>

#include "load/backends.h"
#include "net/kernel_transport.h"
#include "runtime/platform.h"
#include "services/backend_pool.h"
#include "services/service_util.h"
#include "timing_transport.h"
#include "workload.h"

namespace perfbench {

class Testbed {
 public:
  // Builds and preloads the backends, then times Start(): backends, platform
  // and service (DSL compile and lowering included) up to the first correct
  // answer. `traced` puts the timing decorator under the platform.
  static flick::Result<std::unique_ptr<Testbed>> Start(const WorkloadSpec& spec, bool traced,
                                                       double* setup_seconds);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  uint16_t port() const { return port_; }
  uint16_t backend_port(size_t i) const { return backend_ports_[i]; }
  flick::runtime::Platform& platform() { return *platform_; }
  const flick::services::GraphRegistry& registry() const { return *registry_; }
  const flick::services::BackendPool& pool() const { return *pool_; }
  TimingTransport* timing() { return timing_.get(); }

  // Waits (bounded) until every graph the service adopted has retired;
  // returns the graphs still live.
  uint64_t DrainGraphs();
  void Stop();

 private:
  explicit Testbed(const WorkloadSpec& spec) : spec_(spec) {}
  flick::Status StartAll(bool traced);

  const WorkloadSpec spec_;
  flick::KernelTransport harness_kernel_;
  PortTap harness_{&harness_kernel_};
  flick::KernelTransport sut_kernel_;
  std::unique_ptr<TimingTransport> timing_;
  std::unique_ptr<PortTap> sut_;
  std::vector<std::unique_ptr<flick::load::MemcachedBackend>> mc_backends_;
  std::vector<std::unique_ptr<flick::load::RespBackend>> resp_backends_;
  std::vector<std::unique_ptr<flick::load::HttpBackend>> http_backends_;
  std::vector<uint16_t> backend_ports_;
  std::unique_ptr<flick::runtime::Platform> platform_;
  // Declared after the platform: destroyed first, once the platform stopped.
  std::unique_ptr<flick::runtime::ServiceProgram> service_;
  const flick::services::GraphRegistry* registry_ = nullptr;
  const flick::services::BackendPool* pool_ = nullptr;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TESTBED_H_
