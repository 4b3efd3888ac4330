// Lowering pass (§4.3 / §5): turns checked proc pipeline rules into native
// dispatch plans with pre-resolved field indices, bypassing the bounded
// evaluator's per-message Value boxing for the common middlebox shapes:
//
//   kForward             backends => client
//   kHashRoute           client => route(backends)        (keyed hash route)
//   kCacheUpdateForward  backends => update_cache(cache) => client
//   kCacheTestRoute      client => test_cache(client, backends, cache)
//
// AnalyzeProc structurally matches each input's first pipeline rule (inlining
// single-level stage function calls) against these templates. Anything it
// cannot prove falls back to the interpreter — per message, so a proc with
// one lowerable rule and one opaque rule still runs the fast path where it
// can. MakePlanHandler is the one native executor: it reproduces the
// interpreter's observable semantics (hash masking, dict key/value encoding,
// cache hits emitted as raw bytes) but adopts the hand-written services'
// blocked-retry discipline: every side effect happens only after the
// committing emit is known to succeed. Both DslService and the C++ that
// codegen_cpp prints dispatch through it.
#ifndef FLICK_LANG_LOWER_H_
#define FLICK_LANG_LOWER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lang/compile.h"

namespace flick::lang {

// One lowered pipeline rule, bound to a compute input. Field references are
// resolved to indices in the input type's synthesized grammar::Unit.
struct RulePlan {
  enum class Shape {
    kForward,             // copy input record to forward_out
    kHashRoute,           // hash(key) mod |route_outs| selects the output
    kCacheUpdateForward,  // if cmp_field == cmp_value: dict[key] := record; forward
    kCacheTestRoute,      // cached && cmp_field == cmp_value ? emit cached bytes
                          //   : hash-route the record
  };

  Shape shape = Shape::kForward;
  int forward_out = -1;             // kForward / kCacheUpdateForward / cache hits
  std::vector<int> route_outs;      // kHashRoute / kCacheTestRoute miss path
  int key_field = -1;               // hash / dict key field index
  bool key_is_bytes = true;
  int cmp_field = -1;               // field compared against cmp_value
  bool cmp_is_bytes = true;
  uint64_t cmp_value = 0;
  std::string dict;                 // state dict name ("<proc>.<global>")

  bool operator==(const RulePlan&) const = default;
};

// Per-proc analysis result: rules[i] is the plan for compute input i, or
// nullopt when that input must run through the interpreter.
struct ProcPlan {
  std::vector<std::optional<RulePlan>> rules;

  size_t lowered_inputs() const {
    size_t n = 0;
    for (const auto& r : rules) {
      n += r.has_value() ? 1 : 0;
    }
    return n;
  }
  bool fully_lowered() const {
    return !rules.empty() && lowered_inputs() == rules.size();
  }

  bool operator==(const ProcPlan&) const = default;
};

// Structural pattern match of `proc`'s pipeline rules against the lowerable
// shapes. Never fails: unprovable rules come back as nullopt slots.
ProcPlan AnalyzeProc(const CompiledProgram& program, const ProcDecl& proc,
                     const ProcWiring& wiring);

// Dispatch counters, owned by the caller (DslService's GraphRegistry folds
// them into RegistryStats::dsl_*). Each counts a message once, when its
// handler consumes it; a blocked message is counted on the re-delivery that
// consumes it.
struct DslCounters {
  std::atomic<uint64_t> lowered_msgs{0};      // consumed by a lowered plan
  std::atomic<uint64_t> interp_fallbacks{0};  // consumed by the fallback
};

// The native dispatch entry point. Runs plan.rules[input] against each parsed
// kGrammar message; a message with no rule for its input (or not kGrammar)
// goes to `fallback`, or is dropped when `fallback` is empty. EOF is broadcast
// all-or-nothing (runtime::BroadcastEof). Cache-shaped rules need `state`;
// with a null `state` they are demoted to the fallback. `counters` may be
// null.
runtime::ComputeTask::Handler MakePlanHandler(ProcPlan plan, runtime::StateStore* state,
                                              runtime::ComputeTask::Handler fallback,
                                              DslCounters* counters = nullptr);

// MakePlanHandler over AnalyzeProc's plan for `proc`, with the interpreter
// (MakeProcHandler) as the fallback. Drop-in replacement for MakeProcHandler.
runtime::ComputeTask::Handler MakeLoweredProcHandler(
    std::shared_ptr<const CompiledProgram> program, const ProcDecl* proc,
    ProcWiring wiring, runtime::StateStore* state, std::string state_prefix,
    DslCounters* counters = nullptr);

}  // namespace flick::lang

#endif  // FLICK_LANG_LOWER_H_
