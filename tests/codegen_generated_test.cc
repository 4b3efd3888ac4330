// Runs the C++ that codegen_cpp prints for the built-in FLICK programs. The
// build generates flickgen_memcached.cc and flickgen_resp.cc with
// codegen_emit and links them into this binary; these tests check that the
// printed units and plans are exactly what the compiler built, and that the
// generated handlers dispatch like the library's lowered handler.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "buffer/buffer_chain.h"
#include "buffer/buffer_pool.h"
#include "grammar/parser.h"
#include "grammar/serializer.h"
#include "lang/compile.h"
#include "lang/lower.h"
#include "proto/memcached.h"
#include "runtime/channel.h"
#include "services/dsl_service.h"

namespace flick::flickgen {
// Defined in the generated translation units.
grammar::Unit Make_cmd_Unit();
grammar::Unit Make_req_Unit();
grammar::Unit Make_reply_Unit();
lang::ProcPlan Make_memcached_Plan(size_t backend_count);
lang::ProcPlan Make_resp_router_Plan(size_t backend_count);
runtime::ComputeTask::Handler Make_memcached_Handler(runtime::StateStore* state,
                                                     size_t backend_count,
                                                     runtime::ComputeTask::Handler fallback);
runtime::ComputeTask::Handler Make_resp_router_Handler(runtime::StateStore* state,
                                                       size_t backend_count,
                                                       runtime::ComputeTask::Handler fallback);
}  // namespace flick::flickgen

namespace flick::lang {
namespace {

std::shared_ptr<CompiledProgram> Compile(const char* source) {
  auto compiled = CompileSource(source);
  FLICK_CHECK(compiled.ok());
  return std::move(compiled).value();
}

// DslService's wiring for a proc with `n` backends: input/output 0 is the
// client, 1..n the backends.
ProcWiring ServiceWiring(size_t n) {
  ProcWiring wiring;
  wiring.endpoints["client"].inputs = {0};
  wiring.endpoints["client"].outputs = {0};
  for (size_t i = 0; i < n; ++i) {
    wiring.endpoints["backends"].inputs.push_back(1 + i);
    wiring.endpoints["backends"].outputs.push_back(1 + i);
  }
  return wiring;
}

void ExpectSameLenExpr(const grammar::LenExpr& got, const grammar::LenExpr& want,
                       const std::string& where) {
  using Op = grammar::LenExpr::Op;
  ASSERT_EQ(got.op(), want.op()) << where;
  switch (want.op()) {
    case Op::kConst:
      EXPECT_EQ(got.const_value(), want.const_value()) << where;
      return;
    case Op::kField:
      EXPECT_EQ(got.field_name(), want.field_name()) << where;
      return;
    case Op::kDollar:
      return;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
      ExpectSameLenExpr(got.lhs(), want.lhs(), where);
      ExpectSameLenExpr(got.rhs(), want.rhs(), where);
      return;
  }
}

void ExpectSameUnit(const grammar::Unit& got, const grammar::Unit& want) {
  EXPECT_EQ(got.name(), want.name());
  EXPECT_EQ(got.byte_order(), want.byte_order());
  EXPECT_EQ(got.fixed_prefix_size(), want.fixed_prefix_size());
  ASSERT_EQ(got.fields().size(), want.fields().size()) << want.name();
  for (size_t i = 0; i < want.fields().size(); ++i) {
    const grammar::FieldSpec& g = got.fields()[i];
    const grammar::FieldSpec& w = want.fields()[i];
    const std::string where = want.name() + " field " + std::to_string(i);
    EXPECT_EQ(g.name, w.name) << where;
    EXPECT_EQ(g.kind, w.kind) << where;
    EXPECT_EQ(g.fixed_size, w.fixed_size) << where;
    EXPECT_EQ(g.ascii, w.ascii) << where;
    EXPECT_EQ(g.materialize, w.materialize) << where;
    EXPECT_EQ(g.serialize_target, w.serialize_target) << where;
    ExpectSameLenExpr(g.length, w.length, where);
    ExpectSameLenExpr(g.parse_expr, w.parse_expr, where);
  }
}

TEST(GeneratedCodeTest, UnitsAreTheCompilersUnits) {
  auto memcached = Compile(services::kMemcachedRouterSource);
  auto resp = Compile(services::kRespRouterSource);
  ExpectSameUnit(flickgen::Make_cmd_Unit(), *memcached->UnitFor("cmd"));
  ExpectSameUnit(flickgen::Make_req_Unit(), *resp->UnitFor("req"));
  ExpectSameUnit(flickgen::Make_reply_Unit(), *resp->UnitFor("reply"));
}

struct GeneratedProc {
  const char* source;
  const char* proc;
  ProcPlan (*plan)(size_t);
};
const GeneratedProc kProcs[] = {
    {services::kMemcachedRouterSource, "memcached", &flickgen::Make_memcached_Plan},
    {services::kRespRouterSource, "resp_router", &flickgen::Make_resp_router_Plan},
};

TEST(GeneratedCodeTest, PlansAreAnalyzeProcUnderServiceWiring) {
  for (const GeneratedProc& p : kProcs) {
    auto program = Compile(p.source);
    const ProcDecl* proc = program->ast.FindProc(p.proc);
    ASSERT_NE(proc, nullptr);
    for (size_t n : {1, 2, 4}) {
      const ProcPlan want = AnalyzeProc(*program, *proc, ServiceWiring(n));
      EXPECT_TRUE(want.fully_lowered()) << p.proc << " n=" << n;
      EXPECT_TRUE(p.plan(n) == want) << p.proc << " n=" << n;
    }
  }
}

// RunPlan indexes route_outs by hash, so a route rule with no targets must
// never reach it: with no backends the rule is left out and its input falls
// back, as in AnalyzeProc.
TEST(GeneratedCodeTest, NoBackendsMeansNoEmptyRoute) {
  for (const GeneratedProc& p : kProcs) {
    const ProcPlan plan = p.plan(0);
    for (const auto& rule : plan.rules) {
      if (rule.has_value() && (rule->shape == RulePlan::Shape::kHashRoute ||
                               rule->shape == RulePlan::Shape::kCacheTestRoute)) {
        EXPECT_FALSE(rule->route_outs.empty()) << p.proc;
      }
    }
    auto program = Compile(p.source);
    EXPECT_TRUE(plan == AnalyzeProc(*program, *program->ast.FindProc(p.proc),
                                    ServiceWiring(0)))
        << p.proc;
  }
}

// One handler over in-memory output channels and its own StateStore.
struct Arm {
  explicit Arm(size_t outputs) {
    for (size_t i = 0; i < outputs; ++i) {
      channels.push_back(std::make_unique<runtime::Channel>(64));
      outs.push_back(channels.back().get());
    }
  }

  runtime::StateStore state;
  runtime::ComputeTask::Handler handler;
  std::vector<std::unique_ptr<runtime::Channel>> channels;
  std::vector<runtime::Channel*> outs;
};

// A message's wire form, for comparing outputs across arms.
std::string WireOf(runtime::Msg& msg) {
  if (msg.kind != runtime::Msg::Kind::kGrammar) {
    return msg.bytes;
  }
  BufferPool pool(16, 4096);
  BufferChain chain(&pool);
  FLICK_CHECK(grammar::UnitSerializer(msg.gmsg.unit()).Serialize(msg.gmsg, chain).ok());
  return chain.ToString();
}

// Feeds the same parsed messages to Make_<proc>_Handler (no fallback) and to
// MakeLoweredProcHandler, and checks both emit the same messages on the same
// outputs.
class HandlerParity {
 public:
  HandlerParity(const char* source, const char* proc_name,
                runtime::ComputeTask::Handler (*make_generated)(
                    runtime::StateStore*, size_t, runtime::ComputeTask::Handler),
                size_t backends)
      : program_(Compile(source)),
        generated_(1 + backends),
        lowered_(1 + backends) {
    const ProcDecl* proc = program_->ast.FindProc(proc_name);
    FLICK_CHECK(proc != nullptr);
    generated_.handler = make_generated(&generated_.state, backends, {});
    lowered_.handler = MakeLoweredProcHandler(program_, proc, ServiceWiring(backends),
                                              &lowered_.state, proc_name, &counters_);
  }

  // Parses `wire` with unit `type` and delivers it on `input` to both arms.
  // Returns the output index each message went to, in emit order.
  std::vector<size_t> Deliver(const std::string& type, const std::string& wire,
                              size_t input) {
    const std::vector<Emitted> generated = Run(generated_, type, wire, input);
    EXPECT_EQ(generated, Run(lowered_, type, wire, input))
        << type << " on input " << input;
    std::vector<size_t> outs;
    for (const Emitted& e : generated) {
      outs.push_back(e.first);
    }
    return outs;
  }

  const DslCounters& counters() const { return counters_; }

 private:
  // (output index, message kind and wire form) of one emitted message.
  using Emitted = std::pair<size_t, std::string>;

  std::vector<Emitted> Run(Arm& arm, const std::string& type, const std::string& wire,
                           size_t input) {
    runtime::MsgRef msg = msgs_.Acquire();
    BufferPool pool(16, 4096);
    BufferChain chain(&pool);
    FLICK_CHECK(chain.Append(wire));
    grammar::UnitParser parser(program_->UnitFor(type));
    FLICK_CHECK(parser.Feed(chain, &msg->gmsg) == grammar::ParseStatus::kDone);
    msg->kind = runtime::Msg::Kind::kGrammar;
    runtime::EmitContext emit(&arm.outs, &msgs_);
    EXPECT_EQ(arm.handler(*msg, input, emit), runtime::HandleResult::kConsumed);

    std::vector<Emitted> emitted;
    for (size_t out = 0; out < arm.outs.size(); ++out) {
      while (runtime::MsgRef m = arm.outs[out]->TryPop()) {
        emitted.emplace_back(out, std::to_string(static_cast<int>(m->kind)) + ":" +
                                      WireOf(*m));
      }
    }
    return emitted;
  }

  std::shared_ptr<CompiledProgram> program_;
  runtime::MsgPool msgs_{256};
  DslCounters counters_;
  Arm generated_;
  Arm lowered_;
};

std::string MemcachedWire(bool response, uint8_t opcode, const std::string& key,
                          const std::string& value) {
  grammar::Message msg;
  if (response) {
    proto::BuildResponse(&msg, opcode, 0, key, value);
  } else {
    proto::BuildRequest(&msg, opcode, key, value);
  }
  return proto::ToWire(msg);
}

TEST(GeneratedCodeTest, MemcachedHandlerMatchesLoweredHandler) {
  constexpr size_t kBackends = 4;
  HandlerParity parity(services::kMemcachedRouterSource, "memcached",
                       &flickgen::Make_memcached_Handler, kBackends);
  std::mt19937 rng(7);
  for (int i = 0; i < 16; ++i) {
    const std::string key = "key-" + std::to_string(rng() % 100000);
    // GET miss: not cacheable, hash-routed to a backend.
    const auto get = parity.Deliver(
        "cmd", MemcachedWire(false, proto::kMemcachedGet, key, ""), 0);
    ASSERT_EQ(get.size(), 1u);
    EXPECT_GE(get[0], 1u);
    // GETK populate: the backend's GETK response is cached and forwarded.
    const auto populate = parity.Deliver(
        "cmd", MemcachedWire(true, proto::kMemcachedGetK, key, "v" + key), get[0]);
    EXPECT_EQ(populate, (std::vector<size_t>{0}));
    // Cache hit: the next GETK is answered from the cache.
    const auto hit = parity.Deliver(
        "cmd", MemcachedWire(false, proto::kMemcachedGetK, key, ""), 0);
    EXPECT_EQ(hit, (std::vector<size_t>{0}));
  }
  EXPECT_EQ(parity.counters().lowered_msgs.load(), 48u);
  EXPECT_EQ(parity.counters().interp_fallbacks.load(), 0u);
}

std::string RespBulk(const std::string& s) {
  return "$" + std::to_string(s.size()) + "\r\n" + s + "\r\n";
}

TEST(GeneratedCodeTest, RespHandlerMatchesLoweredHandler) {
  constexpr size_t kBackends = 4;
  HandlerParity parity(services::kRespRouterSource, "resp_router",
                       &flickgen::Make_resp_router_Handler, kBackends);
  std::mt19937 rng(11);
  for (int i = 0; i < 16; ++i) {
    const std::string key = "key-" + std::to_string(rng() % 100000);
    const auto set = parity.Deliver(
        "req", "*3\r\n" + RespBulk("SET") + RespBulk(key) + RespBulk("v" + key), 0);
    ASSERT_EQ(set.size(), 1u);
    EXPECT_GE(set[0], 1u);
    const auto get =
        parity.Deliver("req", "*3\r\n" + RespBulk("GET") + RespBulk(key) + RespBulk(""), 0);
    EXPECT_EQ(get, set);  // same key, same backend
    const auto reply = parity.Deliver("reply", RespBulk("v" + key), get[0]);
    EXPECT_EQ(reply, (std::vector<size_t>{0}));
  }
  EXPECT_EQ(parity.counters().lowered_msgs.load(), 48u);
  EXPECT_EQ(parity.counters().interp_fallbacks.load(), 0u);
}

}  // namespace
}  // namespace flick::lang
