// C++ code generation (extension).
//
// The paper's compiler emits C++ that links against the platform runtime
// (§5: "The FLICK compiler translates an input FLICK program to C++"). This
// pass prints what the compiler already built as one compilable translation
// unit: each type's synthesized grammar::Unit as a UnitBuilder chain, each
// proc's lowering plan (lang/lower.h) as lang::RulePlan literals expanded for
// the backend count known at graph-build time, a handler that runs that plan
// on the library's executor (lang::MakePlanHandler), and GraphBuilder wiring
// for the canonical client + backend-array proc shape. It adds no dispatch
// semantics of its own.
#ifndef FLICK_LANG_CODEGEN_CPP_H_
#define FLICK_LANG_CODEGEN_CPP_H_

#include <string>

#include "lang/compile.h"

namespace flick::lang {

// Renders the whole program as one C++ translation unit in namespace
// flick::flickgen that links against flick_core (codegen_generated_test
// builds and runs the output for both built-in programs).
std::string GenerateCpp(const CompiledProgram& program);

}  // namespace flick::lang

#endif  // FLICK_LANG_CODEGEN_CPP_H_
