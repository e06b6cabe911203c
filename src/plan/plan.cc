#include "plan/plan.h"

#include <algorithm>
#include <map>
#include <string>

#include "ged/canonical.h"
#include "ged/unify.h"
#include "graph/overlay.h"

namespace ged {

namespace {

// The bucket's representative: `q` with variable x renamed to
// to_canonical[x]. Labels and edges land in canonical order, so every member
// rule of a bucket produces this exact pattern.
Pattern CanonicalPattern(const Pattern& q,
                         const std::vector<VarId>& to_canonical) {
  size_t n = q.NumVars();
  std::vector<VarId> from_canonical(n);
  for (VarId x = 0; x < n; ++x) from_canonical[to_canonical[x]] = x;
  Pattern rep;
  for (size_t i = 0; i < n; ++i) {
    rep.AddVar("v" + std::to_string(i), q.label(from_canonical[i]));
  }
  std::vector<Pattern::PEdge> edges;
  edges.reserve(q.NumEdges());
  for (const Pattern::PEdge& e : q.edges()) {
    edges.push_back({to_canonical[e.src], e.label, to_canonical[e.dst]});
  }
  std::sort(edges.begin(), edges.end(), [](const Pattern::PEdge& a,
                                           const Pattern::PEdge& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.label != b.label) return a.label < b.label;
    return a.dst < b.dst;
  });
  for (const Pattern::PEdge& e : edges) rep.AddEdge(e.src, e.label, e.dst);
  return rep;
}

std::vector<Literal> RemapLiterals(const std::vector<Literal>& in,
                                   const std::vector<VarId>& to_plan) {
  std::vector<Literal> out = in;
  for (Literal& l : out) {
    l.x = to_plan[l.x];
    if (l.kind != LiteralKind::kConst) l.y = to_plan[l.y];
  }
  return out;
}

}  // namespace

size_t RulesetPlan::NumSharedRules() const {
  size_t shared = 0;
  for (const PlanBucket& b : buckets) {
    if (b.rules.size() > 1) shared += b.rules.size();
  }
  return shared;
}

RulesetPlan RulesetPlan::Compile(const std::vector<Ged>& sigma,
                                 PlanMode mode) {
  RulesetPlan plan;
  plan.num_rules = sigma.size();
  std::map<std::vector<uint64_t>, size_t> bucket_of;
  for (size_t i = 0; i < sigma.size(); ++i) {
    const Ged& phi = sigma[i];
    UnifiedPremise unified = UnifyIdPremises(phi.pattern(), phi.X());
    PlanRule rule;
    rule.ged_index = i;
    rule.name = phi.name();
    rule.forbidding = phi.is_forbidding();
    rule.merges = unified.merges;
    rule.vacuous = unified.vacuous;
    rule.to_plan = std::move(unified.to_quotient);
    size_t bucket;
    if (mode == PlanMode::kPerRule) {
      // A bucket of its own over the unified pattern, variables untouched.
      bucket = plan.buckets.size();
      plan.buckets.push_back(PlanBucket{std::move(unified.pattern), {}});
    } else {
      PatternCanonicalForm form = CanonicalizePattern(unified.pattern);
      auto [it, inserted] = bucket_of.emplace(std::move(form.key),
                                              plan.buckets.size());
      if (inserted) {
        plan.buckets.emplace_back();
        plan.buckets.back().pattern =
            CanonicalPattern(unified.pattern, form.to_canonical);
      }
      bucket = it->second;
      // Rule variable → quotient variable → canonical position.
      for (VarId& v : rule.to_plan) v = form.to_canonical[v];
    }
    rule.x_plan = RemapLiterals(unified.x, rule.to_plan);
    rule.y_plan = RemapLiterals(phi.Y(), rule.to_plan);
    plan.buckets[bucket].rules.push_back(std::move(rule));
  }
  return plan;
}

namespace {

template <typename GView>
MatchStats ScanBucketT(const GView& g, const PlanBucket& bucket,
                       const MatchOptions& mopts, uint64_t* checked,
                       const PlanViolationCallback& on_violation) {
  const MatchSemantics sem = mopts.semantics;
  if (std::none_of(bucket.rules.begin(), bucket.rules.end(),
                   [&](const PlanRule& r) { return r.CanFire(sem); })) {
    return MatchStats{};
  }
  Match rule_match;
  return EnumerateMatches(bucket.pattern, g, mopts, [&](const Match& h) {
    for (const PlanRule& r : bucket.rules) {
      if (!r.CanFire(sem)) continue;
      ++*checked;
      if (!SatisfiesAll(g, h, r.x_plan)) continue;
      if (!r.forbidding && SatisfiesAll(g, h, r.y_plan)) continue;
      rule_match.resize(r.to_plan.size());
      for (VarId x = 0; x < r.to_plan.size(); ++x) {
        rule_match[x] = h[r.to_plan[x]];
      }
      if (!on_violation(r.ged_index, rule_match)) return false;
    }
    return true;
  });
}

}  // namespace

MatchStats ScanBucket(const Graph& g, const PlanBucket& bucket,
                      const MatchOptions& mopts, uint64_t* checked,
                      const PlanViolationCallback& on_violation) {
  return ScanBucketT(g, bucket, mopts, checked, on_violation);
}

MatchStats ScanBucket(const FrozenGraph& g, const PlanBucket& bucket,
                      const MatchOptions& mopts, uint64_t* checked,
                      const PlanViolationCallback& on_violation) {
  return ScanBucketT(g, bucket, mopts, checked, on_violation);
}

MatchStats ScanBucket(const OverlayView& g, const PlanBucket& bucket,
                      const MatchOptions& mopts, uint64_t* checked,
                      const PlanViolationCallback& on_violation) {
  return ScanBucketT(g, bucket, mopts, checked, on_violation);
}

}  // namespace ged
