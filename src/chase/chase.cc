#include "chase/chase.h"

#include <algorithm>
#include <random>

#include "match/matcher.h"

namespace ged {

Coercion BuildCoercion(const EqRel& eq) {
  const Graph& base = eq.base();
  Coercion co;
  co.node_map.assign(base.NumNodes(), 0);
  std::unordered_map<NodeId, NodeId> root_to_q;
  for (NodeId v = 0; v < base.NumNodes(); ++v) {
    NodeId root = eq.NodeRoot(v);
    auto it = root_to_q.find(root);
    if (it == root_to_q.end()) {
      NodeId q = co.graph.AddNode(eq.ClassLabel(root));
      root_to_q.emplace(root, q);
      co.rep.push_back(root);
      co.node_map[v] = q;
    } else {
      co.node_map[v] = it->second;
    }
  }
  for (NodeId v = 0; v < base.NumNodes(); ++v) {
    for (const Edge& e : base.out(v)) {
      co.graph.AddEdge(co.node_map[v], e.label, co.node_map[e.other]);
    }
  }
  // Known constants become quotient attributes; attribute classes without a
  // constant stay Eq-only (EqSatisfiesLiteral sees them).
  for (NodeId q = 0; q < co.graph.NumNodes(); ++q) {
    for (const auto& [attr, term] : eq.ClassAttrs(co.rep[q])) {
      auto c = eq.TermConst(term);
      if (c.has_value()) co.graph.SetAttr(q, attr, *c);
    }
  }
  return co;
}

namespace {

// Satisfaction / entailment / application of a literal against the live Eq,
// with the match given as base-graph node ids.
bool EqLiteralHolds(const EqRel& eq, const Match& base_match,
                    const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kConst: {
      TermId t = eq.FindTerm(base_match[l.x], l.a);
      if (t == kNoTerm) return false;
      auto c = eq.TermConst(t);
      return c.has_value() && *c == l.c;
    }
    case LiteralKind::kVar: {
      TermId t1 = eq.FindTerm(base_match[l.x], l.a);
      TermId t2 = eq.FindTerm(base_match[l.y], l.b);
      return t1 != kNoTerm && t2 != kNoTerm && eq.SameTerm(t1, t2);
    }
    case LiteralKind::kId:
      return eq.SameNode(base_match[l.x], base_match[l.y]);
  }
  return false;
}

void ApplyLiteral(EqRel* eq, const Match& base_match, const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kConst: {
      TermId t = eq->GetOrCreateTerm(base_match[l.x], l.a);
      eq->BindConst(t, l.c);
      break;
    }
    case LiteralKind::kVar: {
      TermId t1 = eq->GetOrCreateTerm(base_match[l.x], l.a);
      TermId t2 = eq->GetOrCreateTerm(base_match[l.y], l.b);
      eq->MergeTerms(t1, t2);
      break;
    }
    case LiteralKind::kId:
      eq->MergeNodes(base_match[l.x], base_match[l.y]);
      break;
  }
}

Match ToBaseMatch(const Coercion& co, const Match& h) {
  Match out(h.size());
  for (size_t i = 0; i < h.size(); ++i) out[i] = co.rep[h[i]];
  return out;
}

}  // namespace

std::vector<Match> PremiseMatches(const UnifiedPremise& u, const Coercion& co,
                                  const MatchOptions& mopts) {
  if (u.vacuous) return {};
  std::vector<Match> matches = AllMatches(u.pattern, co.graph, mopts);
  Match rule_match;
  for (Match& h : matches) {
    u.Expand(h, &rule_match);
    h.resize(rule_match.size());
    for (size_t i = 0; i < h.size(); ++i) h[i] = co.rep[rule_match[i]];
  }
  return matches;
}

bool EqSatisfiesLiteral(const EqRel& eq, const Coercion& co, const Match& h,
                        const Literal& literal) {
  return EqLiteralHolds(eq, ToBaseMatch(co, h), literal);
}

bool EqSatisfiesAll(const EqRel& eq, const Coercion& co, const Match& h,
                    const std::vector<Literal>& literals) {
  Match base_match = ToBaseMatch(co, h);
  for (const Literal& l : literals) {
    if (!EqLiteralHolds(eq, base_match, l)) return false;
  }
  return true;
}

bool Deducible(const EqRel& eq, const Literal& literal_on_base_nodes) {
  const Literal& l = literal_on_base_nodes;
  Match identity;
  size_t needed = std::max(l.x, l.kind == LiteralKind::kConst ? l.x : l.y) + 1;
  identity.resize(needed);
  for (size_t i = 0; i < needed; ++i) identity[i] = static_cast<NodeId>(i);
  return EqLiteralHolds(eq, identity, l);
}

EqRel BuildEqX(const Graph& gq, const std::vector<Literal>& x) {
  EqRel eq(gq);
  Match identity(gq.NumNodes());
  for (NodeId v = 0; v < gq.NumNodes(); ++v) identity[v] = v;
  for (const Literal& l : x) {
    ApplyLiteral(&eq, identity, l);
  }
  return eq;
}

void ApplyLiteralAt(EqRel* eq, const Match& base_match, const Literal& l) {
  ApplyLiteral(eq, base_match, l);
}

bool LiteralHoldsAt(const EqRel& eq, const Match& base_match,
                    const Literal& l) {
  return EqLiteralHolds(eq, base_match, l);
}

Graph InstantiateModel(const EqRel& eq) {
  Coercion co = BuildCoercion(eq);
  Label fresh_label = Sym("!fresh_label");
  Graph out;
  for (NodeId q = 0; q < co.graph.NumNodes(); ++q) {
    Label l =
        co.graph.label(q) == kWildcard ? fresh_label : co.graph.label(q);
    out.AddNode(l);
  }
  std::unordered_map<TermId, Value> fresh_values;
  int counter = 0;
  for (NodeId q = 0; q < co.graph.NumNodes(); ++q) {
    for (const auto& [attr, term] : eq.ClassAttrs(co.rep[q])) {
      auto c = eq.TermConst(term);
      if (c.has_value()) {
        out.SetAttr(q, attr, *c);
        continue;
      }
      TermId root = eq.TermRoot(term);
      auto it = fresh_values.find(root);
      if (it == fresh_values.end()) {
        it = fresh_values
                 .emplace(root, Value("!fresh_" + std::to_string(counter++)))
                 .first;
      }
      out.SetAttr(q, attr, it->second);
    }
  }
  for (NodeId q = 0; q < co.graph.NumNodes(); ++q) {
    for (const Edge& e : co.graph.out(q)) out.AddEdge(q, e.label, e.other);
  }
  return out;
}

size_t SigmaSize(const std::vector<Ged>& sigma) {
  size_t total = 0;
  for (const Ged& phi : sigma) {
    total += phi.pattern().Size() + phi.X().size() + phi.Y().size() + 1;
  }
  return total;
}

ChaseResult Chase(const Graph& base, const std::vector<Ged>& sigma,
                  const EqRel* init, const ChaseOptions& options) {
  ScopedSpan span(options.obs.Trace(), "Chase",
                  options.obs.Trace() == nullptr
                      ? std::string{}
                      : "sigma=" + std::to_string(sigma.size()));
  ScopedLatency lat(options.obs.Metrics(), EngineMetric::kChaseWallNs);
  if (MetricsRegistry* m = options.obs.Metrics()) {
    m->Inc(EngineMetric::kChaseRuns);
  }
  ChaseResult res{.consistent = false,
                  .conflict_reason = "",
                  .eq = init ? *init : EqRel(base),
                  .coercion = {},
                  .journal = {},
                  .num_steps = 0,
                  .capped = false};
  // Fires on every return path (the chase has several) with the final step
  // count; nothing per applied step touches the registry.
  struct StepsObs {
    MetricsRegistry* m;
    const uint64_t* steps;
    ~StepsObs() {
      if (m != nullptr && *steps > 0) m->Inc(EngineMetric::kChaseSteps, *steps);
    }
  } steps_obs{options.obs.Metrics(), &res.num_steps};
  EqRel& eq = res.eq;
  if (eq.inconsistent()) {
    res.conflict_reason = "initial Eq inconsistent: " + eq.conflict_reason();
    res.coercion = BuildCoercion(eq);
    return res;
  }
  std::mt19937 rng(options.order_seed);
  // Each rule's id premises folded into its pattern, once: in the coercion
  // two variables name the same class iff they bind the same quotient
  // node, so the unified pattern's matches are exactly the matches whose id
  // premises hold.
  std::vector<UnifiedPremise> unified;
  unified.reserve(sigma.size());
  for (const Ged& phi : sigma) {
    unified.push_back(UnifyIdPremises(phi.pattern(), phi.X()));
  }
  MatchOptions mopts;
  mopts.obs = options.obs;

  bool done = false;
  while (!done) {
    Coercion co = BuildCoercion(eq);
    bool changed = false;

    std::vector<size_t> rule_order(sigma.size());
    for (size_t i = 0; i < sigma.size(); ++i) rule_order[i] = i;
    if (options.order_seed != 0) {
      std::shuffle(rule_order.begin(), rule_order.end(), rng);
    }

    for (size_t idx : rule_order) {
      const Ged& phi = sigma[idx];
      std::vector<Match> matches = PremiseMatches(unified[idx], co, mopts);
      if (options.order_seed != 0) {
        std::shuffle(matches.begin(), matches.end(), rng);
      }
      for (const Match& base_match : matches) {
        bool x_sat = true;
        for (const Literal& l : unified[idx].x) {
          if (!EqLiteralHolds(eq, base_match, l)) {
            x_sat = false;
            break;
          }
        }
        if (!x_sat) continue;
        if (phi.is_forbidding()) {
          res.conflict_reason =
              "forbidding GED '" + phi.name() + "' applies (X holds, Y = false)";
          res.coercion = BuildCoercion(eq);
          return res;  // invalid chasing sequence, result ⊥
        }
        for (const Literal& l : phi.Y()) {
          if (EqLiteralHolds(eq, base_match, l)) continue;
          ApplyLiteral(&eq, base_match, l);
          ++res.num_steps;
          if (options.record_journal) {
            res.journal.push_back(ChaseStep{idx, base_match, l});
          }
          changed = true;
          if (eq.inconsistent()) {
            res.conflict_reason = eq.conflict_reason();
            res.coercion = BuildCoercion(eq);
            return res;
          }
          if (options.max_steps != 0 && res.num_steps >= options.max_steps) {
            res.capped = true;
            res.coercion = BuildCoercion(eq);
            return res;
          }
        }
      }
    }
    if (!changed) done = true;
  }
  res.consistent = true;
  res.coercion = BuildCoercion(eq);
  return res;
}

}  // namespace ged
