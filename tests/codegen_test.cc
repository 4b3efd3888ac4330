// Tests for the C++ code-generation pass (extension; paper §5: the FLICK
// compiler emits C++ linked against the platform).
#include <gtest/gtest.h>

#include "lang/codegen_cpp.h"
#include "lang/compile.h"
#include "services/dsl_service.h"

namespace flick::lang {
namespace {

TEST(CodegenTest, EmitsUnitBuilderForTypes) {
  auto compiled = CompileSource(services::kMemcachedRouterSource);
  ASSERT_TRUE(compiled.ok());
  const std::string cpp = GenerateCpp(**compiled);
  EXPECT_NE(cpp.find("Make_cmd_Unit"), std::string::npos);
  EXPECT_NE(cpp.find(".UInt(\"keylen\", 2)"), std::string::npos);
  EXPECT_NE(cpp.find("grammar::LenExpr::Field(\"keylen\")"), std::string::npos);
}

TEST(CodegenTest, EmitsHandlersForProcs) {
  auto compiled = CompileSource(services::kMemcachedRouterSource);
  ASSERT_TRUE(compiled.ok());
  const std::string cpp = GenerateCpp(**compiled);
  EXPECT_NE(cpp.find("Make_memcached_Handler"), std::string::npos);
  EXPECT_NE(cpp.find("runtime::ComputeTask::Handler"), std::string::npos);
}

TEST(CodegenTest, PrintsFunctionBodiesAsRulePlans) {
  auto compiled = CompileSource(services::kMemcachedRouterSource);
  ASSERT_TRUE(compiled.ok());
  const std::string cpp = GenerateCpp(**compiled);
  // test_cache lowers to the client's cache-test/route plan over the expanded
  // backend array; update_cache to one cache-update/forward plan per backend.
  EXPECT_NE(cpp.find("lang::ProcPlan Make_memcached_Plan("), std::string::npos);
  EXPECT_NE(cpp.find(".shape = lang::RulePlan::Shape::kCacheTestRoute"),
            std::string::npos);
  EXPECT_NE(cpp.find(".shape = lang::RulePlan::Shape::kCacheUpdateForward"),
            std::string::npos);
  EXPECT_NE(cpp.find(".route_outs = backends"), std::string::npos);
  EXPECT_NE(cpp.find(".dict = \"memcached.cache\""), std::string::npos);
}

TEST(CodegenTest, EmitsNativeDispatchFromLoweringPlans) {
  for (const char* source :
       {services::kMemcachedRouterSource, services::kRespRouterSource}) {
    auto compiled = CompileSource(source);
    ASSERT_TRUE(compiled.ok());
    const std::string cpp = GenerateCpp(**compiled);
    // The handler hands the printed plan to the library's executor; every
    // dispatch decision (hashing, dict access, EOF) is made there.
    EXPECT_NE(cpp.find("return lang::MakePlanHandler("), std::string::npos);
    for (const char* baked : {"HashBytes", "MixU64", "state->Get", "state->Put",
                              "kEof", "CanEmit"}) {
      EXPECT_EQ(cpp.find(baked), std::string::npos) << baked;
    }
  }
}

TEST(CodegenTest, EmitsGraphWiringForCanonicalShape) {
  auto compiled = CompileSource(services::kMemcachedRouterSource);
  ASSERT_TRUE(compiled.ok());
  const std::string cpp = GenerateCpp(**compiled);
  EXPECT_NE(cpp.find("Build_memcached_Graph"), std::string::npos);
  EXPECT_NE(cpp.find("FanOutPooled"), std::string::npos);
  EXPECT_NE(cpp.find("GrammarDeserializer"), std::string::npos);
}

TEST(CodegenTest, RespProgramUsesAsciiIntegerFields) {
  auto compiled = CompileSource(services::kRespRouterSource);
  ASSERT_TRUE(compiled.ok());
  const std::string cpp = GenerateCpp(**compiled);
  EXPECT_NE(cpp.find(".AsciiUInt(\"keylen\")"), std::string::npos);
  EXPECT_NE(cpp.find("Make_reply_Unit"), std::string::npos);
  EXPECT_NE(cpp.find("Build_resp_router_Graph"), std::string::npos);
}

TEST(CodegenTest, AutoFramedStringsGetSynthesizedLengths) {
  auto compiled = CompileSource(
      "type kv: record\n"
      "    key : string\n"
      "    value : string\n");
  ASSERT_TRUE(compiled.ok());
  const std::string cpp = GenerateCpp(**compiled);
  EXPECT_NE(cpp.find("__len_key"), std::string::npos);
  EXPECT_NE(cpp.find("__len_value"), std::string::npos);
}

TEST(CodegenTest, FoldtProcPrintsEmptyPlan) {
  auto compiled = CompileSource(
      "type kv: record\n"
      "    key : string\n"
      "    value : string\n"
      "proc hadoop: ([kv/-] mappers, -/kv reducer)\n"
      "    foldt on mappers ordering by key combine combine_kv => reducer\n"
      "fun combine_kv: (e1: kv, e2: kv) -> (kv)\n"
      "    kv(e1.key, add(e1.value, e2.value))\n");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::string cpp = GenerateCpp(**compiled);
  // foldt does not lower: the plan has no rules, so every input falls back.
  EXPECT_NE(cpp.find("lang::ProcPlan Make_hadoop_Plan("), std::string::npos);
  EXPECT_EQ(cpp.find("lang::RulePlan{"), std::string::npos);
  EXPECT_NE(cpp.find("proc hadoop: no canonical client/backends shape"),
            std::string::npos);
}

}  // namespace
}  // namespace flick::lang
