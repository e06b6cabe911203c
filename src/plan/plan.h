// Shared-plan ruleset compiler.
//
// Real rulesets (GKeys, GFDs, GDCs over one schema) share pattern structure
// heavily: validating Σ one GED at a time re-enumerates near-identical match
// spaces per rule. RulesetPlan::Compile canonicalizes each GED's pattern
// (ged/canonical.h), buckets rules with isomorphic patterns into one batched
// enumeration, and attaches each rule's X → Y check — with its literals
// rewritten into the bucket's canonical variable space — as a per-match
// callback. One bucket of r isomorphic rules costs one pattern enumeration
// instead of r.
//
// Before bucketing, every rule's id premises are folded into its pattern
// (ged/unify.h): the bucket enumerates the premise-unified pattern Q/~, whose
// matches are exactly the matches of Q that satisfy X's id literals, and
// to_plan composes the quotient map with the canonical renaming. GKeys whose
// two copies meet only in an id premise are then scanned as one joined
// pattern instead of a cross product filtered afterwards.
//
// PlanMode::kPerRule compiles the degenerate shape instead: one bucket per
// rule, in Σ order, over the rule's premise-unified pattern — the rule's own
// pattern verbatim, with an identity to_plan, when X has no id literal
// linking two variables. It skips canonicalization entirely, so comparing
// the two shapes (tests/plan_diff_test.cc) checks canonicalize-and-share
// against direct per-rule evaluation. The unification is a per-rule
// rewrite, not sharing, so both shapes apply it.
//
// Execution (reason/validation.cc drives this through Validate and friends):
// ScanBucket enumerates the bucket's representative pattern once under
// caller-supplied MatchOptions (pins, restrictions, exclusions — all the
// partitioning tools of the matcher apply unchanged, since the bucket
// pattern *is* a pattern) and reports each rule's violations with the match
// permuted back into the rule's own variable order, so reports are
// bit-identical between the two plan shapes. Parallel work is partitioned on
// the bucket variable match/MostSelectiveVariable picks, by label-index
// selectivity (graph/Graph::CandidateCount).

#ifndef GEDLIB_PLAN_PLAN_H_
#define GEDLIB_PLAN_PLAN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "ged/ged.h"
#include "graph/frozen.h"
#include "graph/graph.h"
#include "match/matcher.h"
#include "reason/policy.h"

namespace ged {

/// One rule's residue after compilation: its identity in Σ plus the X → Y
/// check rewritten over the bucket's canonical variables.
struct PlanRule {
  /// Index of this rule in the compiled Σ.
  size_t ged_index = 0;
  /// The rule's name (Ged::name; diagnostics and the match profiler).
  std::string name;
  /// to_plan[x] is the bucket variable bound where the rule's own variable x
  /// is bound: rule_match[x] = bucket_match[to_plan[x]]. Several rule
  /// variables share a bucket variable when X's id premises link them.
  std::vector<VarId> to_plan;
  /// X without its id premises (they hold on every bucket match) and Y,
  /// with variable ids remapped by to_plan (checkable directly against a
  /// bucket match, no permutation needed).
  std::vector<Literal> x_plan;
  std::vector<Literal> y_plan;
  /// True iff Y is the Boolean constant false.
  bool forbidding = false;
  /// True iff X's id premises link two distinct variables: no injective
  /// match satisfies X, so the rule is skipped under kIsomorphism.
  bool merges = false;
  /// True iff X's id premises link variables with different concrete
  /// labels: no match satisfies X, so the rule is never checked.
  bool vacuous = false;

  /// Whether a scan under `semantics` checks this rule at all.
  bool CanFire(MatchSemantics semantics) const {
    return !vacuous &&
           !(merges && semantics == MatchSemantics::kIsomorphism);
  }
};

/// A set of rules whose patterns are isomorphic, sharing one enumeration.
struct PlanBucket {
  /// The representative pattern: any member rule's premise-unified pattern
  /// renamed by its canonical renaming (labels and edges in canonical
  /// order; under kPerRule the one rule's premise-unified pattern
  /// verbatim).
  Pattern pattern;
  /// The member rules' checks, in Σ order.
  std::vector<PlanRule> rules;
};

/// A compiled ruleset: Σ partitioned into shared-pattern buckets.
struct RulesetPlan {
  std::vector<PlanBucket> buckets;
  /// Number of rules compiled (Σ size).
  size_t num_rules = 0;

  /// Rules that landed in a bucket with at least one other rule — the
  /// enumeration work the plan deduplicates.
  size_t NumSharedRules() const;

  /// Compiles Σ. Deterministic: buckets appear in order of their first
  /// member rule, members in Σ order. kPerRule emits one bucket per rule
  /// over its own premise-unified pattern (see the file comment).
  static RulesetPlan Compile(const std::vector<Ged>& sigma,
                             PlanMode mode = PlanMode::kCompiled);
};

/// Called once per violating (rule, match); `rule_match` is in the rule's
/// own variable order (valid only during the call). Return false to stop the
/// bucket scan.
using PlanViolationCallback =
    std::function<bool(size_t ged_index, const Match& rule_match)>;

/// Enumerates `bucket.pattern` once under `mopts`; for every match and every
/// member rule that can fire under mopts.semantics, increments *checked and
/// reports the rule's violations (h ⊨ X but h ⊭ Y). A bucket none of whose
/// rules can fire is not enumerated at all. A bucket scan therefore
/// inspects exactly the (match, rule) pairs its rules' one-rule buckets
/// would, so `checked` counts agree between the two plan shapes. Overloaded
/// per read backend; reports are bit-identical between the mutable Graph and
/// a FrozenGraph snapshot of it.
MatchStats ScanBucket(const Graph& g, const PlanBucket& bucket,
                      const MatchOptions& mopts, uint64_t* checked,
                      const PlanViolationCallback& on_violation);
MatchStats ScanBucket(const FrozenGraph& g, const PlanBucket& bucket,
                      const MatchOptions& mopts, uint64_t* checked,
                      const PlanViolationCallback& on_violation);
MatchStats ScanBucket(const OverlayView& g, const PlanBucket& bucket,
                      const MatchOptions& mopts, uint64_t* checked,
                      const PlanViolationCallback& on_violation);

}  // namespace ged

#endif  // GEDLIB_PLAN_PLAN_H_
