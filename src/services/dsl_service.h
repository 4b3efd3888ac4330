// DSL-driven network service: runs a compiled FLICK program (Listing 1's
// caching Memcached router by default) as a live middlebox.
//
// This is the full paper pipeline: FLICK source -> compiler (parser + checker
// + unit synthesis) -> lowering pass (lang/lower.h: native dispatch handlers
// with pre-resolved field indices, interpreter fallback for unprovable rules)
// -> per-connection task graph on the pooled/sharded runtime. Backend legs
// run through the striped BackendPool by default (request deadlines and
// circuit breakers for free); Options::wire.mode == kPerClient restores the
// paper's original dedicated-connection shape.
//
// Dispatch observability: RegistryStats{dsl_lowered_msgs,
// dsl_interp_fallbacks} count messages executed by lowered plans vs the
// bounded evaluator. A fully lowered program keeps dsl_interp_fallbacks at 0.
#ifndef FLICK_SERVICES_DSL_SERVICE_H_
#define FLICK_SERVICES_DSL_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "lang/compile.h"
#include "lang/lower.h"
#include "runtime/platform.h"
#include "services/backend_pool.h"
#include "services/service_util.h"

namespace flick::services {

// The paper's Listing 1 (caching Memcached router) in FLICK source form.
extern const char kMemcachedRouterSource[];

// A RESP (Redis) GET/SET router over the fixed-arity-3 subset
// `*3\r\n$<n>\r\n<cmd>\r\n$<n>\r\n<key>\r\n$<n>\r\n<val>\r\n` (GET carries an
// empty value). Requests hash-route on the key; backend replies are RESP bulk
// strings forwarded to the client. Framing uses the grammar plane's
// ascii-integer fields ({ascii=true}).
extern const char kRespRouterSource[];

class DslService : public runtime::ServiceProgram {
 public:
  struct Options {
    // The shared wire-policy knobs — see services::WireOptions. kPooled mode
    // (default) shares one striped BackendPool across all client graphs;
    // kPerClient dials dedicated backend legs per graph.
    WireOptions wire;
    // Run rules through the lowering pass (lang/lower.h). Off = every message
    // goes through the bounded evaluator — the interp arm of BM_DslAblation.
    bool lower = true;
  };

  // The service opens (kPerClient) or leases (kPooled) one backend leg per
  // entry of `backend_ports` for each accepted client connection.
  static Result<std::unique_ptr<DslService>> Create(const std::string& source,
                                                    const std::string& proc_name,
                                                    std::vector<uint16_t> backend_ports);
  static Result<std::unique_ptr<DslService>> Create(const std::string& source,
                                                    const std::string& proc_name,
                                                    std::vector<uint16_t> backend_ports,
                                                    Options options);

  const char* name() const override { return name_.c_str(); }
  void OnConnection(std::unique_ptr<Connection> conn, runtime::PlatformEnv& env) override;

  const lang::CompiledProgram& program() const { return *program_; }
  size_t live_graphs() const { return registry_.live_graphs(); }
  const GraphRegistry& registry() const { return registry_; }
  RegistryStats stats() const { return registry_.stats(); }

  // Null in kPerClient mode or when the proc has no backend array.
  const BackendPool* pool() const { return pool_.get(); }
  BackendPool* mutable_pool() { return pool_.get(); }

 private:
  DslService() = default;

  runtime::ComputeTask::Handler BuildHandler(const lang::ProcWiring& wiring,
                                             runtime::PlatformEnv& env);

  std::shared_ptr<lang::CompiledProgram> program_;
  const lang::ProcDecl* proc_ = nullptr;
  std::string name_;
  std::string client_param_;
  std::string backends_param_;
  const grammar::Unit* client_in_unit_ = nullptr;    // client reads
  const grammar::Unit* client_out_unit_ = nullptr;   // client writes
  const grammar::Unit* backend_in_unit_ = nullptr;   // backend replies
  const grammar::Unit* backend_out_unit_ = nullptr;  // backend requests
  std::vector<uint16_t> backend_ports_;
  Options options_;
  std::unique_ptr<BackendPool> pool_;
  GraphRegistry registry_;
};

}  // namespace flick::services

#endif  // FLICK_SERVICES_DSL_SERVICE_H_
