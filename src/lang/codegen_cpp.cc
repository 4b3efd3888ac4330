#include "lang/codegen_cpp.h"

#include <sstream>
#include <string>
#include <vector>

#include "base/check.h"
#include "lang/lower.h"

namespace flick::lang {
namespace {

// ------------------------------------------------------------------ units ----

// The C++ expression that rebuilds `expr`.
void PrintLenExpr(const grammar::LenExpr& expr, std::ostringstream& out) {
  using Op = grammar::LenExpr::Op;
  switch (expr.op()) {
    case Op::kConst:
      out << "grammar::LenExpr::Const(" << expr.const_value() << ")";
      return;
    case Op::kField:
      out << "grammar::LenExpr::Field(\"" << expr.field_name() << "\")";
      return;
    case Op::kDollar:
      out << "grammar::LenExpr::Dollar()";
      return;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
      out << "(";
      PrintLenExpr(expr.lhs(), out);
      out << (expr.op() == Op::kAdd ? " + " : expr.op() == Op::kSub ? " - " : " * ");
      PrintLenExpr(expr.rhs(), out);
      out << ")";
      return;
  }
}

// The unit as a UnitBuilder chain, field by field. SynthesizeUnit builds only
// fixed-width and ascii integers and sized byte strings.
void PrintUnit(const grammar::Unit& unit, std::ostringstream& out) {
  out << "grammar::Unit Make_" << unit.name() << "_Unit() {\n"
      << "  return grammar::UnitBuilder(\"" << unit.name() << "\")\n"
      << "      .ByteOrder(ByteOrder::"
      << (unit.byte_order() == ByteOrder::kBig ? "kBig" : "kLittle") << ")\n";
  for (const grammar::FieldSpec& field : unit.fields()) {
    FLICK_CHECK(field.kind != grammar::FieldKind::kVar);
    if (field.kind == grammar::FieldKind::kBytes) {
      out << "      .Bytes(\"" << field.name << "\", ";
      PrintLenExpr(field.length, out);
      out << ")\n";
    } else if (field.ascii) {
      out << "      .AsciiUInt(\"" << field.name << "\")\n";
    } else {
      out << "      .UInt(\"" << field.name << "\", " << field.fixed_size << ")\n";
    }
  }
  out << "      .Build().value();\n}\n\n";
  out << "const grammar::Unit& " << unit.name() << "_Unit() {\n"
      << "  static const grammar::Unit unit = Make_" << unit.name() << "_Unit();\n"
      << "  return unit;\n}\n\n";
}

// --------------------------------------------------------- canonical shape ----

// The canonical service wiring: scalar channels take compute indices in
// declaration order; the (single) channel array takes the tail block starting
// at `array_base` — one slot per backend, count known only at graph-build
// time. Matches services::DslService::OnConnection.
struct CanonicalShape {
  ProcWiring wiring;                  // array gets ONE analysis slot at array_base
  std::vector<const Param*> scalars;  // channel params, index = position in list
  const Param* array = nullptr;
  int array_base = -1;
};

CanonicalShape ShapeOf(const ProcDecl& proc) {
  CanonicalShape shape;
  size_t arrays = 0;
  for (const Param& p : proc.params) {
    if (!p.channel.has_value()) {
      continue;
    }
    if (p.channel->is_array) {
      ++arrays;
      shape.array = &p;
    } else {
      shape.scalars.push_back(&p);
    }
  }
  if (arrays > 1) {
    return {};  // no canonical wiring: the printed plan stays empty
  }
  int next = 0;
  for (const Param* p : shape.scalars) {
    shape.wiring.endpoints[p->name].inputs = {static_cast<size_t>(next)};
    shape.wiring.endpoints[p->name].outputs = {static_cast<size_t>(next)};
    ++next;
  }
  if (shape.array != nullptr) {
    shape.array_base = next;
    shape.wiring.endpoints[shape.array->name].inputs = {static_cast<size_t>(next)};
    shape.wiring.endpoints[shape.array->name].outputs = {static_cast<size_t>(next)};
  }
  return shape;
}

// ------------------------------------------------------------------- plans ----

const char* ShapeEnumerator(RulePlan::Shape shape) {
  switch (shape) {
    case RulePlan::Shape::kForward: return "kForward";
    case RulePlan::Shape::kHashRoute: return "kHashRoute";
    case RulePlan::Shape::kCacheUpdateForward: return "kCacheUpdateForward";
    case RulePlan::Shape::kCacheTestRoute: return "kCacheTestRoute";
  }
  return "?";
}

// One RulePlan as a literal assigned to plan.rules[<index>]. Route outputs can
// only name the channel array, so they print as the expanded `backends`.
void PrintRule(const RulePlan& rule, const std::string& index,
               std::ostringstream& out, const std::string& pad) {
  out << pad << "plan.rules[" << index << "] = lang::RulePlan{\n"
      << pad << "    .shape = lang::RulePlan::Shape::" << ShapeEnumerator(rule.shape)
      << ",\n"
      << pad << "    .forward_out = " << rule.forward_out << ",\n"
      << pad << "    .route_outs = " << (rule.route_outs.empty() ? "{}" : "backends")
      << ",\n"
      << pad << "    .key_field = " << rule.key_field << ",\n"
      << pad << "    .key_is_bytes = " << (rule.key_is_bytes ? "true" : "false") << ",\n"
      << pad << "    .cmp_field = " << rule.cmp_field << ",\n"
      << pad << "    .cmp_is_bytes = " << (rule.cmp_is_bytes ? "true" : "false") << ",\n"
      << pad << "    .cmp_value = " << rule.cmp_value << "u,\n"
      << pad << "    .dict = \"" << rule.dict << "\",\n"
      << pad << "};\n";
}

// Make_<proc>_Plan(backend_count): AnalyzeProc's plan for the canonical
// wiring, with the array's one analysis slot expanded to `backend_count`.
// With no backends a route rule has no targets, so — as in AnalyzeProc — it is
// left out and its input falls back.
void PrintPlan(const CompiledProgram& program, const ProcDecl& proc,
               const CanonicalShape& shape, std::ostringstream& out) {
  const ProcPlan plan = AnalyzeProc(program, proc, shape.wiring);
  const size_t scalars = shape.scalars.size();

  out << "// proc " << proc.name << " -> dispatch plan. Scalar channels take proc\n"
         "// inputs/outputs in declaration order, then one per backend.\n"
      << "lang::ProcPlan Make_" << proc.name
      << "_Plan([[maybe_unused]] size_t backend_count) {\n";
  if (shape.array != nullptr) {
    out << "  std::vector<int> backends;\n"
        << "  for (size_t i = 0; i < backend_count; ++i) {\n"
        << "    backends.push_back(static_cast<int>(" << shape.array_base << " + i));\n"
        << "  }\n";
  }
  out << "  lang::ProcPlan plan;\n"
      << "  plan.rules.resize(" << scalars
      << (shape.array != nullptr ? " + backend_count" : "") << ");\n";
  for (size_t i = 0; i < scalars; ++i) {
    const auto& rule = plan.rules[i];
    if (!rule.has_value()) {
      continue;
    }
    out << "  // " << shape.scalars[i]->name << "\n";
    if (rule->route_outs.empty()) {
      PrintRule(*rule, std::to_string(i), out, "  ");
    } else {
      out << "  if (backend_count > 0) {\n";
      PrintRule(*rule, std::to_string(i), out, "    ");
      out << "  }\n";
    }
  }
  if (shape.array != nullptr &&
      static_cast<size_t>(shape.array_base) < plan.rules.size() &&
      plan.rules[static_cast<size_t>(shape.array_base)].has_value()) {
    out << "  // " << shape.array->name << "\n"
        << "  for (size_t i = 0; i < backend_count; ++i) {\n";
    PrintRule(*plan.rules[static_cast<size_t>(shape.array_base)],
              std::to_string(shape.array_base) + " + i", out, "    ");
    out << "  }\n";
  }
  out << "  return plan;\n}\n\n";
}

// ------------------------------------------------------------ graph wiring ----

// Only the canonical middlebox shape gets wiring: one scalar channel the
// service reads from (the accepted client) plus an optional backend array.
void PrintGraph(const ProcDecl& proc, const CanonicalShape& shape,
                std::ostringstream& out) {
  const Param* client = nullptr;
  for (const Param* p : shape.scalars) {
    if (p->channel->in_type != "-") {
      client = p;
      break;
    }
  }
  if (client == nullptr || shape.scalars.size() != 1) {
    out << "// proc " << proc.name << ": no canonical client/backends shape — "
           "graph wiring not generated.\n\n";
    return;
  }
  const std::string in_unit = client->channel->in_type + "_Unit()";
  const std::string out_unit = client->channel->out_type == "-"
                                   ? in_unit
                                   : client->channel->out_type + "_Unit()";
  out << "// proc " << proc.name << " -> per-connection graph (Fig. 3 shape):\n"
         "// client source -> proc stage -> client sink + pooled backend legs.\n"
         "// Call per accepted connection, then b.Launch(registry).\n";
  out << "void Build_" << proc.name << "_Graph(\n"
         "    services::GraphBuilder& b, std::unique_ptr<Connection> client_conn,\n";
  if (shape.array != nullptr) {
    out << "    services::BackendPool& pool,\n";
  }
  out << "    runtime::StateStore* state, runtime::ComputeTask::Handler fallback) {\n";
  out << "  auto client = b.Adopt(std::move(client_conn));\n";
  out << "  auto request = b.Source(\n"
         "      \"client-in\", client,\n"
         "      std::make_unique<runtime::GrammarDeserializer>(&" << in_unit << "));\n";
  if (shape.array != nullptr) {
    out << "  auto legs = b.FanOutPooled(pool, /*capacity=*/64);\n";
  }
  out << "  auto proc = b.Stage(\"proc:" << proc.name << "\",\n"
         "                      Make_" << proc.name << "_Handler(state, "
      << (shape.array != nullptr ? "legs.size()" : "0") << ",\n"
         "                                                       std::move(fallback)))\n"
         "                  .From(request);  // proc input 0\n";
  out << "  b.Sink(\"client-out\", client,\n"
         "         std::make_unique<runtime::GrammarSerializer>(&" << out_unit
      << "))\n"
         "      .From(proc);  // proc output 0\n";
  if (shape.array != nullptr) {
    out << "  for (auto& leg : legs) {\n"
           "    leg.sink.From(proc);  // proc outputs 1..n\n"
           "  }\n"
           "  for (auto& leg : legs) {\n"
           "    proc.From(leg.source);  // proc inputs 1..n\n"
           "  }\n";
  }
  out << "}\n\n";
}

}  // namespace

std::string GenerateCpp(const CompiledProgram& program) {
  std::ostringstream out;
  out << "// Generated by the FLICK compiler (codegen_cpp pass).\n"
         "// Types -> the compiler's grammar units; procs -> the lowering pass's\n"
         "// dispatch plans, run by the library's plan executor\n"
         "// (lang::MakePlanHandler); graphs -> GraphBuilder wiring on the pooled\n"
         "// runtime. Inputs without a plan dispatch to the `fallback` handler.\n"
         "#include <cstddef>\n"
         "#include <memory>\n"
         "#include <utility>\n"
         "#include <vector>\n"
         "\n"
         "#include \"grammar/unit.h\"\n"
         "#include \"lang/lower.h\"\n"
         "#include \"runtime/compute_task.h\"\n"
         "#include \"runtime/state_store.h\"\n"
         "#include \"services/graph_builder.h\"\n"
         "\n"
         "namespace flick::flickgen {\n\n";

  for (const auto& [name, unit] : program.units) {
    out << "// type " << name << "\n";
    PrintUnit(unit, out);
  }

  for (const ProcDecl& proc : program.ast.procs) {
    const CanonicalShape shape = ShapeOf(proc);
    PrintPlan(program, proc, shape, out);
    out << "// proc " << proc.name << " -> ComputeTask handler. `backend_count` is\n"
           "// the size of the backend channel array at graph-build time (0 if the\n"
           "// proc has none); inputs without a plan dispatch to `fallback` (pass\n"
           "// the interpreter handler, or {} to drop).\n"
        << "runtime::ComputeTask::Handler Make_" << proc.name << "_Handler(\n"
           "    runtime::StateStore* state, size_t backend_count,\n"
           "    runtime::ComputeTask::Handler fallback) {\n"
        << "  return lang::MakePlanHandler(Make_" << proc.name
        << "_Plan(backend_count), state,\n"
           "                               std::move(fallback));\n"
           "}\n\n";
    PrintGraph(proc, shape, out);
  }

  out << "}  // namespace flick::flickgen\n";
  return out.str();
}

}  // namespace flick::lang
