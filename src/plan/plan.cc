#include "plan/plan.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "ged/canonical.h"
#include "graph/overlay.h"

namespace ged {

namespace {

// The bucket's representative: `q` with variable x renamed to to_plan[x].
// Labels and edges land in canonical order, so every member rule of a bucket
// produces this exact pattern.
Pattern CanonicalPattern(const Pattern& q, const std::vector<VarId>& to_plan) {
  size_t n = q.NumVars();
  std::vector<VarId> from_plan(n);
  for (VarId x = 0; x < n; ++x) from_plan[to_plan[x]] = x;
  Pattern rep;
  for (size_t i = 0; i < n; ++i) {
    rep.AddVar("v" + std::to_string(i), q.label(from_plan[i]));
  }
  std::vector<Pattern::PEdge> edges;
  edges.reserve(q.NumEdges());
  for (const Pattern::PEdge& e : q.edges()) {
    edges.push_back({to_plan[e.src], e.label, to_plan[e.dst]});
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
    PlanRule rule;
    rule.ged_index = i;
    rule.name = phi.name();
    rule.forbidding = phi.is_forbidding();
    if (mode == PlanMode::kPerRule) {
      // A bucket of its own over the rule's pattern, variables untouched.
      rule.to_plan.resize(phi.pattern().NumVars());
      std::iota(rule.to_plan.begin(), rule.to_plan.end(), VarId{0});
      rule.x_plan = phi.X();
      rule.y_plan = phi.Y();
      plan.buckets.push_back(PlanBucket{phi.pattern(), {}});
      plan.buckets.back().rules.push_back(std::move(rule));
      continue;
    }
    PatternCanonicalForm form = CanonicalizePattern(phi.pattern());
    auto [it, inserted] = bucket_of.emplace(std::move(form.key),
                                            plan.buckets.size());
    if (inserted) {
      plan.buckets.emplace_back();
      plan.buckets.back().pattern =
          CanonicalPattern(phi.pattern(), form.to_canonical);
    }
    rule.x_plan = RemapLiterals(phi.X(), form.to_canonical);
    rule.y_plan = RemapLiterals(phi.Y(), form.to_canonical);
    rule.to_plan = std::move(form.to_canonical);
    plan.buckets[it->second].rules.push_back(std::move(rule));
  }
  return plan;
}

namespace {

template <typename GView>
MatchStats ScanBucketT(const GView& g, const PlanBucket& bucket,
                       const MatchOptions& mopts, uint64_t* checked,
                       const PlanViolationCallback& on_violation) {
  Match rule_match;
  return EnumerateMatches(bucket.pattern, g, mopts, [&](const Match& h) {
    for (const PlanRule& r : bucket.rules) {
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
