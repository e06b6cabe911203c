#include "axiom/generator.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "reason/implication.h"

namespace ged {

namespace {

// A node of the term-connectivity graph used to reconstruct GED4 chains:
// either an attribute occurrence (var, attr) or a constant.
struct TermNode {
  bool is_const = false;
  VarId var = 0;
  AttrId attr = 0;
  Value c;

  static TermNode Term(VarId v, AttrId a) {
    TermNode n;
    n.var = v;
    n.attr = a;
    return n;
  }
  static TermNode Const(Value v) {
    TermNode n;
    n.is_const = true;
    n.c = std::move(v);
    return n;
  }
  bool operator==(const TermNode& o) const {
    if (is_const != o.is_const) return false;
    return is_const ? c == o.c : (var == o.var && attr == o.attr);
  }
  std::string Key() const {
    return is_const ? "c:" + c.ToString()
                    : "t:" + std::to_string(var) + "." + std::to_string(attr);
  }
};

// An edge of the term graph with its symbolic justification.
struct TermEdge {
  enum Kind { kVarLit, kConstLit, kGed2 } kind;
  TermNode to;
  Literal lit;        // the underlying literal (kVarLit/kConstLit)
  VarId u = 0, v = 0; // kGed2: identified nodes
  AttrId attr = 0;    // kGed2: the shared attribute
};

class ProofBuilder {
 public:
  ProofBuilder(const std::vector<Ged>& sigma, const Ged& phi)
      : sigma_(sigma), target_(phi), gq_(phi.pattern().ToGraph()) {
    n_ = phi.pattern().NumVars();
  }

  Result<Proof> Build() {
    ImplicationResult imp = CheckImplication(sigma_, target_);
    if (!imp.implied) {
      return Status::InvalidArgument(
          "Σ does not imply φ; by soundness no proof exists");
    }
    StartAccumulator();
    if (eq_->inconsistent()) return FinishWithGed5();

    // Claim 1: replay each chase step as a GED6 embedding.
    for (const ChaseStep& step : imp.chase.journal) {
      GEDLIB_RETURN_IF_ERROR(ReplayChaseStep(step));
      if (eq_->inconsistent()) return FinishWithGed5();
    }
    if (!imp.chase.consistent) {
      // The chase ended invalid (e.g. a forbidding GED fired) but replaying
      // recorded steps did not surface the conflict; embed the offending
      // GED once more is unnecessary — the journal always contains the
      // conflicting enforcement for literal conflicts. Forbidding GEDs
      // leave no journal entry, so embed them explicitly.
      GEDLIB_RETURN_IF_ERROR(EmbedFiringForbidding());
      if (eq_->inconsistent()) return FinishWithGed5();
      return Status::Internal("chase inconsistent but accumulator is not");
    }

    if (target_.is_forbidding()) {
      return Status::Internal(
          "forbidding GED implied by a consistent chase (impossible)");
    }
    // Case (2) of Theorem 4: derive every literal of Y, then extract.
    for (const Literal& l : target_.Y()) {
      GEDLIB_RETURN_IF_ERROR(DeriveLiteral(l));
    }
    return ExtractTarget();
  }

 private:
  // ----- accumulator ------------------------------------------------------

  void StartAccumulator() {
    std::vector<Literal> y = UnionLiterals(target_.X(), XidLiterals(n_));
    Ged conclusion("ged1", target_.pattern(), target_.X(), y);
    ProofStep step;
    step.rule = RuleId::kGed1;
    step.conclusion = std::move(conclusion);
    acc_ = proof_.Append(std::move(step));
    acc_y_ = y;
    RefreshEq();
  }

  void RefreshEq() {
    eq_ = std::make_unique<EqRel>(BuildEqX(gq_, acc_y_));
    co_ = std::make_unique<Coercion>(BuildCoercion(*eq_));
  }

  Match Identity() const {
    Match m(n_);
    for (size_t i = 0; i < n_; ++i) m[i] = static_cast<NodeId>(i);
    return m;
  }

  Ged AccJudgment(std::vector<Literal> y) const {
    return Ged("acc", target_.pattern(), target_.X(), std::move(y));
  }

  // Folds a single-literal judgment (step `single`, literal `lit`) back into
  // the accumulator via a GED6 self-embedding with the identity match.
  Status Fold(size_t single, const Literal& lit) {
    if (ContainsLiteral(acc_y_, lit)) return Status::OK();
    std::vector<Literal> y = UnionLiterals(acc_y_, {lit});
    ProofStep step;
    step.rule = RuleId::kGed6;
    step.prev = acc_;
    step.other = single;
    step.h = Identity();
    step.conclusion = AccJudgment(y);
    acc_ = proof_.Append(std::move(step));
    acc_y_ = std::move(y);
    // Folded literals are Eq-entailed, so the partition is unchanged; no
    // refresh needed.
    return Status::OK();
  }

  // Appends a single-literal judgment derived from the accumulator.
  size_t Single(RuleId rule, const Literal& lit1, const Literal& lit2,
                const Literal& conclusion_lit) {
    ProofStep step;
    step.rule = rule;
    step.prev = acc_;
    step.lit1 = lit1;
    step.lit2 = lit2;
    step.conclusion = AccJudgment({conclusion_lit});
    return proof_.Append(std::move(step));
  }

  // Ensures `oriented` itself is in the accumulator, flipping its reverse
  // with GED3 when necessary.
  Status EnsureOriented(const Literal& oriented) {
    if (ContainsLiteral(acc_y_, oriented)) return Status::OK();
    Literal reverse = FlipLiteral(oriented);
    if (!ContainsLiteral(acc_y_, reverse)) {
      return Status::Internal("literal nor its flip in accumulator: " +
                              oriented.ToString());
    }
    size_t s = Single(RuleId::kGed3, reverse, Literal{}, oriented);
    return Fold(s, oriented);
  }

  // Composes `cur` with `next` via GED4 and folds; returns the composition.
  Result<Literal> Compose(const Literal& cur, const Literal& next) {
    auto composed = ComposeLiterals(cur, next);
    if (!composed.ok()) return composed.status();
    size_t s = Single(RuleId::kGed4, cur, next, composed.value());
    GEDLIB_RETURN_IF_ERROR(Fold(s, composed.value()));
    return composed;
  }

  // ----- case (1): inconsistency ------------------------------------------

  Result<Proof> FinishWithGed5() {
    ProofStep step;
    step.rule = RuleId::kGed5;
    step.prev = acc_;
    step.conclusion = target_;
    proof_.Append(std::move(step));
    return std::move(proof_);
  }

  // When a forbidding GED of Σ fires, the chase journal has no literal entry
  // (the sequence just becomes invalid). Find the firing match and embed the
  // desugared GED; its conflicting constants make the accumulator
  // inconsistent so GED5 can close. The GED's premise-unified pattern
  // (ged/unify.h) is enumerated, so only the rest of X is checked here.
  Status EmbedFiringForbidding() {
    for (size_t idx = 0; idx < sigma_.size(); ++idx) {
      if (!sigma_[idx].is_forbidding()) continue;
      const Ged& phi = sigma_[idx];
      UnifiedPremise u = UnifyIdPremises(phi.pattern(), phi.X());
      for (const Match& base : PremiseMatches(u, *co_)) {
        bool x_ok = true;
        for (const Literal& l : u.x) {
          if (!LiteralHoldsAt(*eq_, base, l)) {
            x_ok = false;
            break;
          }
        }
        if (x_ok) return ReplayEmbedding(idx, base);
      }
    }
    return Status::Internal("no firing forbidding GED found");
  }

  // ----- Claim 1 replay -----------------------------------------------------

  size_t SigmaStep(size_t idx) {
    auto it = sigma_steps_.find(idx);
    if (it != sigma_steps_.end()) return it->second;
    ProofStep step;
    step.rule = RuleId::kInSigma;
    step.sigma_index = idx;
    step.conclusion = Desugar(sigma_[idx]);
    size_t s = proof_.Append(std::move(step));
    sigma_steps_.emplace(idx, s);
    return s;
  }

  Status ReplayChaseStep(const ChaseStep& cs) {
    return ReplayEmbedding(cs.ged_index, cs.match);
  }

  Status ReplayEmbedding(size_t sigma_idx, const Match& base_match) {
    size_t other = SigmaStep(sigma_idx);
    const Ged& o = proof_.steps()[other].conclusion;
    // Substitution images with class-representative variables.
    auto rep_var = [&](VarId x1) -> VarId {
      return static_cast<VarId>(co_->rep[co_->node_map[base_match[x1]]]);
    };
    std::vector<Literal> images;
    for (const Literal& l1 : o.Y()) {
      Literal img;
      switch (l1.kind) {
        case LiteralKind::kConst:
          img = Literal::Const(rep_var(l1.x), l1.a, l1.c);
          break;
        case LiteralKind::kVar:
          img = Literal::Var(rep_var(l1.x), l1.a, rep_var(l1.y), l1.b);
          break;
        case LiteralKind::kId:
          img = Literal::Id(rep_var(l1.x), rep_var(l1.y));
          break;
      }
      if (!ContainsLiteral(acc_y_, img)) images.push_back(img);
    }
    if (images.empty()) return Status::OK();
    std::vector<Literal> y = UnionLiterals(acc_y_, images);
    ProofStep step;
    step.rule = RuleId::kGed6;
    step.prev = acc_;
    step.other = other;
    step.h = base_match;
    step.conclusion = AccJudgment(y);
    acc_ = proof_.Append(std::move(step));
    acc_y_ = std::move(y);
    RefreshEq();
    return Status::OK();
  }

  // ----- case (2): literal derivation ---------------------------------------

  Status DeriveLiteral(const Literal& l) {
    if (ContainsLiteral(acc_y_, l)) return Status::OK();
    if (l.kind == LiteralKind::kId) return DeriveId(l.x, l.y);
    return DeriveVarOrConst(l);
  }

  // Derives Id(x, y) through a chain of id literals in the accumulator.
  Status DeriveId(VarId x, VarId y) {
    if (ContainsLiteral(acc_y_, Literal::Id(x, y))) return Status::OK();
    // BFS over id-literal edges.
    std::vector<std::vector<VarId>> adj(n_);
    for (const Literal& l : acc_y_) {
      if (l.kind != LiteralKind::kId) continue;
      adj[l.x].push_back(l.y);
      adj[l.y].push_back(l.x);
    }
    std::vector<VarId> parent(n_, Pattern::kNoVar);
    std::deque<VarId> queue{x};
    std::vector<bool> seen(n_, false);
    seen[x] = true;
    while (!queue.empty()) {
      VarId u = queue.front();
      queue.pop_front();
      if (u == y) break;
      for (VarId v : adj[u]) {
        if (!seen[v]) {
          seen[v] = true;
          parent[v] = u;
          queue.push_back(v);
        }
      }
    }
    if (!seen[y]) {
      return Status::Internal("no id chain from x to y in accumulator");
    }
    std::vector<VarId> path;  // y back to x
    for (VarId v = y; v != Pattern::kNoVar; v = parent[v]) path.push_back(v);
    std::reverse(path.begin(), path.end());  // x ... y
    Literal cur;
    bool have_cur = false;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      Literal hop = Literal::Id(path[i], path[i + 1]);
      GEDLIB_RETURN_IF_ERROR(EnsureOriented(hop));
      if (!have_cur) {
        cur = hop;
        have_cur = true;
      } else {
        auto composed = Compose(cur, hop);
        if (!composed.ok()) return composed.status();
        cur = composed.Take();
      }
    }
    return Status::OK();
  }

  // Ensures attribute occurrence (x, a) textually appears in the
  // accumulator, introducing it via GED2 from an identified node if needed.
  Status MaterializeTerm(VarId x, AttrId a) {
    if (AttrOccurs(acc_y_, x, a)) return Status::OK();
    // Find a written occurrence (z, a) with z in x's node class.
    VarId z = Pattern::kNoVar;
    for (const Literal& l : acc_y_) {
      if (l.kind == LiteralKind::kConst && l.a == a &&
          eq_->SameNode(l.x, x)) {
        z = l.x;
        break;
      }
      if (l.kind == LiteralKind::kVar) {
        if (l.a == a && eq_->SameNode(l.x, x)) {
          z = l.x;
          break;
        }
        if (l.b == a && eq_->SameNode(l.y, x)) {
          z = l.y;
          break;
        }
      }
    }
    if (z == Pattern::kNoVar) {
      return Status::Internal("attribute term cannot be materialized");
    }
    GEDLIB_RETURN_IF_ERROR(DeriveId(z, x));
    Literal out = Literal::Var(z, a, x, a);
    size_t s = Single(RuleId::kGed2, Literal::Id(z, x), out, out);
    return Fold(s, out);
  }

  // Derives Var(x,a,y,b) or Const(x,a,c) via a GED4 chain over the term
  // graph (written literals + GED2 bridges between identified nodes).
  Status DeriveVarOrConst(const Literal& target) {
    GEDLIB_RETURN_IF_ERROR(MaterializeTerm(target.x, target.a));
    TermNode source = TermNode::Term(target.x, target.a);
    TermNode dest = target.kind == LiteralKind::kVar
                        ? TermNode::Term(target.y, target.b)
                        : TermNode::Const(target.c);
    if (target.kind == LiteralKind::kVar) {
      GEDLIB_RETURN_IF_ERROR(MaterializeTerm(target.y, target.b));
    }
    if (source == dest) return DeriveSelfEquality(target.x, target.a);

    // Build the term graph from the accumulator.
    std::unordered_map<std::string, std::vector<TermEdge>> adj;
    std::unordered_map<std::string, TermNode> nodes;
    auto add_node = [&](const TermNode& t) { nodes.emplace(t.Key(), t); };
    auto add_edge = [&](const TermNode& from, TermEdge e) {
      add_node(from);
      add_node(e.to);
      adj[from.Key()].push_back(std::move(e));
    };
    std::unordered_map<AttrId, std::vector<VarId>> occurrences;
    auto note_occurrence = [&](VarId v, AttrId a) {
      auto& list = occurrences[a];
      for (VarId w : list) {
        if (w == v) return;
      }
      list.push_back(v);
    };
    for (const Literal& l : acc_y_) {
      if (l.kind == LiteralKind::kVar) {
        TermNode p = TermNode::Term(l.x, l.a);
        TermNode q = TermNode::Term(l.y, l.b);
        add_edge(p, TermEdge{TermEdge::kVarLit, q, l, 0, 0, 0});
        add_edge(q, TermEdge{TermEdge::kVarLit, p, l, 0, 0, 0});
        note_occurrence(l.x, l.a);
        note_occurrence(l.y, l.b);
      } else if (l.kind == LiteralKind::kConst) {
        TermNode p = TermNode::Term(l.x, l.a);
        TermNode q = TermNode::Const(l.c);
        add_edge(p, TermEdge{TermEdge::kConstLit, q, l, 0, 0, 0});
        add_edge(q, TermEdge{TermEdge::kConstLit, p, l, 0, 0, 0});
        note_occurrence(l.x, l.a);
      }
    }
    // GED2 bridges: occurrences of the same attribute on identified nodes.
    for (const auto& [attr, vars] : occurrences) {
      for (size_t i = 0; i < vars.size(); ++i) {
        for (size_t j = i + 1; j < vars.size(); ++j) {
          if (!eq_->SameNode(vars[i], vars[j])) continue;
          TermNode p = TermNode::Term(vars[i], attr);
          TermNode q = TermNode::Term(vars[j], attr);
          add_edge(p, TermEdge{TermEdge::kGed2, q, Literal{}, vars[i],
                               vars[j], attr});
          add_edge(q, TermEdge{TermEdge::kGed2, p, Literal{}, vars[j],
                               vars[i], attr});
        }
      }
    }
    // BFS.
    std::unordered_map<std::string, std::pair<std::string, TermEdge>> parent;
    std::deque<std::string> queue{source.Key()};
    std::unordered_map<std::string, bool> seen{{source.Key(), true}};
    bool found = false;
    while (!queue.empty() && !found) {
      std::string u = queue.front();
      queue.pop_front();
      for (const TermEdge& e : adj[u]) {
        std::string vkey = e.to.Key();
        if (seen[vkey]) continue;
        seen[vkey] = true;
        parent[vkey] = {u, e};
        if (vkey == dest.Key()) {
          found = true;
          break;
        }
        queue.push_back(vkey);
      }
    }
    if (!found) {
      return Status::Internal("no term chain for " + target.ToString());
    }
    // Reconstruct path edges source -> dest.
    std::vector<std::pair<std::string, TermEdge>> path;  // (from-key, edge)
    for (std::string v = dest.Key(); v != source.Key();) {
      auto& [u, e] = parent[v];
      path.push_back({u, e});
      v = u;
    }
    std::reverse(path.begin(), path.end());

    Literal cur;
    bool have_cur = false;
    std::string cur_key = source.Key();
    for (auto& [from_key, edge] : path) {
      Literal hop;
      switch (edge.kind) {
        case TermEdge::kVarLit: {
          // Orient the literal to read from `from` to `to`.
          TermNode from = nodes[from_key];
          Literal l = edge.lit;
          if (!(l.x == from.var && l.a == from.attr)) l = FlipLiteral(l);
          GEDLIB_RETURN_IF_ERROR(EnsureOriented(l));
          hop = l;
          break;
        }
        case TermEdge::kConstLit:
          // Same literal both directions; composition cases handle it.
          hop = edge.lit;
          break;
        case TermEdge::kGed2: {
          GEDLIB_RETURN_IF_ERROR(DeriveId(edge.u, edge.v));
          Literal out = Literal::Var(edge.u, edge.attr, edge.v, edge.attr);
          size_t s =
              Single(RuleId::kGed2, Literal::Id(edge.u, edge.v), out, out);
          GEDLIB_RETURN_IF_ERROR(Fold(s, out));
          hop = out;
          break;
        }
      }
      if (!have_cur) {
        cur = hop;
        have_cur = true;
      } else {
        auto composed = Compose(cur, hop);
        if (!composed.ok()) return composed.status();
        cur = composed.Take();
      }
    }
    if (!(cur == target)) {
      // The chain may end orientation-flipped (e.g. Var(y,b,x,a)).
      if (FlipLiteral(cur) == target) {
        size_t s = Single(RuleId::kGed3, cur, Literal{}, target);
        return Fold(s, target);
      }
      return Status::Internal("chain derived " + cur.ToString() +
                              " instead of " + target.ToString());
    }
    return Status::OK();
  }

  // Derives the attribute-existence literal x.a = x.a.
  Status DeriveSelfEquality(VarId x, AttrId a) {
    Literal target = Literal::Var(x, a, x, a);
    if (ContainsLiteral(acc_y_, target)) return Status::OK();
    for (const Literal& l : acc_y_) {
      if (l.kind == LiteralKind::kConst && l.x == x && l.a == a) {
        size_t s = Single(RuleId::kGed4, l, l, target);
        return Fold(s, target);
      }
      if (l.kind == LiteralKind::kVar) {
        if (l.x == x && l.a == a) {
          Literal rev = FlipLiteral(l);
          GEDLIB_RETURN_IF_ERROR(EnsureOriented(rev));
          size_t s = Single(RuleId::kGed4, l, rev, target);
          return Fold(s, target);
        }
        if (l.y == x && l.b == a) {
          Literal fwd = FlipLiteral(l);
          GEDLIB_RETURN_IF_ERROR(EnsureOriented(fwd));
          size_t s = Single(RuleId::kGed4, fwd, l, target);
          return Fold(s, target);
        }
      }
    }
    return Status::Internal("no occurrence to derive self equality");
  }

  // ----- final extraction ----------------------------------------------------

  Result<Proof> ExtractTarget() {
    const auto& ty = target_.Y();
    if (ty.empty()) {
      ProofStep step;
      step.rule = RuleId::kGed7;
      step.prev = acc_;
      step.conclusion = Ged(target_.name(), target_.pattern(), target_.X(), {});
      proof_.Append(std::move(step));
      return std::move(proof_);
    }
    // Example 8(a): extract singletons via double GED3, combine via GED6.
    std::vector<size_t> singles;
    std::vector<Literal> distinct;
    for (const Literal& l : ty) {
      if (ContainsLiteral(distinct, l)) continue;
      distinct.push_back(l);
      size_t s1 = Single(RuleId::kGed3, l, Literal{}, FlipLiteral(l));
      ProofStep back;
      back.rule = RuleId::kGed3;
      back.prev = s1;
      back.lit1 = FlipLiteral(l);
      back.conclusion = AccJudgment({l});
      singles.push_back(proof_.Append(std::move(back)));
    }
    size_t cur = singles[0];
    std::vector<Literal> cur_y = {distinct[0]};
    for (size_t i = 1; i < singles.size(); ++i) {
      std::vector<Literal> y = UnionLiterals(cur_y, {distinct[i]});
      ProofStep step;
      step.rule = RuleId::kGed6;
      step.prev = cur;
      step.other = singles[i];
      step.h = Identity();
      step.conclusion = AccJudgment(y);
      cur = proof_.Append(std::move(step));
      cur_y = std::move(y);
    }
    return std::move(proof_);
  }

  const std::vector<Ged>& sigma_;
  Ged target_;
  Graph gq_;
  size_t n_ = 0;
  Proof proof_;
  size_t acc_ = kNoStep;
  std::vector<Literal> acc_y_;
  std::unordered_map<size_t, size_t> sigma_steps_;
  std::unique_ptr<EqRel> eq_;
  std::unique_ptr<Coercion> co_;
};

}  // namespace

Result<Proof> GenerateImplicationProof(const std::vector<Ged>& sigma,
                                       const Ged& phi) {
  ProofBuilder builder(sigma, phi);
  return builder.Build();
}

}  // namespace ged
