// Length/value expressions inside message grammars (§4.2, Listing 2).
//
// A FLICK grammar field may have a size that depends on previously parsed
// fields ("key : string &length = self.key_len") and `var` fields compute
// values during parsing ("&parse = self.total_len - (...)") or write back
// during serialisation ("&serialize = self.total_len = ... + $$", where $$
// is the actual size of the field being serialised).
//
// LenExpr is a tiny immutable expression tree over {constant, field-by-name,
// $$, +, -, *}. Units resolve field names to indices when built.
#ifndef FLICK_GRAMMAR_LEN_EXPR_H_
#define FLICK_GRAMMAR_LEN_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/check.h"

namespace flick::grammar {

class LenExpr {
 public:
  enum class Op { kConst, kField, kDollar, kAdd, kSub, kMul };

  // Default: the constant 0.
  LenExpr() { node_ = MakeNode(Op::kConst, 0, ""); }

  static LenExpr Const(uint64_t value) {
    LenExpr e;
    e.node_ = MakeNode(Op::kConst, value, "");
    return e;
  }

  static LenExpr Field(std::string name) {
    LenExpr e;
    e.node_ = MakeNode(Op::kField, 0, std::move(name));
    return e;
  }

  // $$ — the actual byte size of the field being serialised.
  static LenExpr Dollar() {
    LenExpr e;
    e.node_ = MakeNode(Op::kDollar, 0, "");
    return e;
  }

  friend LenExpr operator+(const LenExpr& a, const LenExpr& b) { return Binary(Op::kAdd, a, b); }
  friend LenExpr operator-(const LenExpr& a, const LenExpr& b) { return Binary(Op::kSub, a, b); }
  friend LenExpr operator*(const LenExpr& a, const LenExpr& b) { return Binary(Op::kMul, a, b); }

  bool is_const() const { return node_->op == Op::kConst; }
  uint64_t const_value() const { return node_->constant; }

  // True when the expression is exactly one field reference.
  bool is_single_field() const { return node_->op == Op::kField; }
  int single_field_index() const { return node_->field_index; }

  // Collects referenced field names (for validation).
  void CollectFieldNames(std::vector<std::string>* out) const { Collect(node_.get(), out); }

  // Resolves field names to indices via the callback; CHECK-fails never —
  // returns false if a name is unknown.
  template <typename Resolver>
  bool Resolve(const Resolver& resolver) {
    return ResolveNode(node_.get(), resolver);
  }

  // Evaluates with `fields[i]` = numeric value of field i and `dollar` = $$.
  uint64_t Eval(const std::vector<uint64_t>& fields, uint64_t dollar = 0) const {
    return EvalNode(node_.get(), fields, dollar);
  }

  bool uses_dollar() const { return UsesDollar(node_.get()); }

  // Read-only view of the tree, for printers. lhs()/rhs() are valid only on
  // kAdd/kSub/kMul nodes, field_name() only on kField.
  Op op() const { return node_->op; }
  const std::string& field_name() const { return node_->field_name; }
  LenExpr lhs() const { return LenExpr(node_->lhs); }
  LenExpr rhs() const { return LenExpr(node_->rhs); }

 private:
  struct Node {
    Op op;
    uint64_t constant;
    std::string field_name;
    int field_index;
    std::shared_ptr<Node> lhs;
    std::shared_ptr<Node> rhs;
  };

  explicit LenExpr(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  static std::shared_ptr<Node> MakeNode(Op op, uint64_t constant, std::string name) {
    return std::make_shared<Node>(Node{op, constant, std::move(name), -1, nullptr, nullptr});
  }

  static LenExpr Binary(Op op, const LenExpr& a, const LenExpr& b) {
    LenExpr e;
    e.node_ = std::make_shared<Node>(Node{op, 0, "", -1, a.node_, b.node_});
    return e;
  }

  static void Collect(const Node* n, std::vector<std::string>* out) {
    if (n == nullptr) {
      return;
    }
    if (n->op == Op::kField) {
      out->push_back(n->field_name);
    }
    Collect(n->lhs.get(), out);
    Collect(n->rhs.get(), out);
  }

  template <typename Resolver>
  static bool ResolveNode(Node* n, const Resolver& resolver) {
    if (n == nullptr) {
      return true;
    }
    if (n->op == Op::kField) {
      const int index = resolver(n->field_name);
      if (index < 0) {
        return false;
      }
      n->field_index = index;
    }
    return ResolveNode(n->lhs.get(), resolver) && ResolveNode(n->rhs.get(), resolver);
  }

  static uint64_t EvalNode(const Node* n, const std::vector<uint64_t>& fields, uint64_t dollar) {
    switch (n->op) {
      case Op::kConst: return n->constant;
      case Op::kDollar: return dollar;
      case Op::kField:
        FLICK_DCHECK(n->field_index >= 0 &&
                     static_cast<size_t>(n->field_index) < fields.size());
        return fields[static_cast<size_t>(n->field_index)];
      case Op::kAdd: return EvalNode(n->lhs.get(), fields, dollar) + EvalNode(n->rhs.get(), fields, dollar);
      case Op::kSub: {
        const uint64_t l = EvalNode(n->lhs.get(), fields, dollar);
        const uint64_t r = EvalNode(n->rhs.get(), fields, dollar);
        return l >= r ? l - r : 0;  // clamp: malformed lengths must not wrap
      }
      case Op::kMul: return EvalNode(n->lhs.get(), fields, dollar) * EvalNode(n->rhs.get(), fields, dollar);
    }
    return 0;
  }

  static bool UsesDollar(const Node* n) {
    if (n == nullptr) {
      return false;
    }
    if (n->op == Op::kDollar) {
      return true;
    }
    return UsesDollar(n->lhs.get()) || UsesDollar(n->rhs.get());
  }

  std::shared_ptr<Node> node_;
};

}  // namespace flick::grammar

#endif  // FLICK_GRAMMAR_LEN_EXPR_H_
