// Validation G ⊨ Σ (paper §5.3).
//
// The basis of inconsistency detection, spam detection and entity checks:
// find violations of GEDs in a graph. coNP-complete in combined complexity
// (Theorem 6, NP-hard to refute already for one GFDx), but PTIME for
// patterns of bounded size k (§5.3 "Tractable cases") — which covers
// real-life patterns (98% of SPARQL patterns have ≤ 4 nodes / 5 edges).
//
// Validate() checks X → Y over the homomorphic matches of Σ's patterns. Σ
// is always evaluated through a compiled plan (plan/plan.h). By default
// rules with isomorphic patterns are bucketed into one batched enumeration
// with per-rule condition callbacks, so a multi-rule Σ over few pattern
// shapes pays one match-space walk per shape instead of one per rule.
// ExecutionPolicy::plan = kPerRule compiles one bucket per rule over the
// rule's own premise-unified pattern (plan/plan.h: id premises of X folded
// into the pattern, which both shapes do) instead; both shapes produce
// bit-identical sorted reports (pinned by the differential harness in
// tests/plan_diff_test.cc).
// The paper's future-work item "parallel scalable algorithms" is
// implemented as a thread pool partitioning the candidate bindings of one
// pattern variable — the most selective one, by the label-index statistics
// of graph/.
//
// Full validation is read-only, so by default (ExecutionPolicy::snapshot,
// above the amortization cutoff) the graph is first compiled into an immutable FrozenGraph
// CSR snapshot (graph/frozen.h) and all workers scan its contiguous arrays;
// the incremental building blocks below keep reading the mutable Graph,
// whose listener hooks and delta-sized scans IncrementalValidator depends
// on. Every path produces the same sorted report against either backend.

#ifndef GEDLIB_REASON_VALIDATION_H_
#define GEDLIB_REASON_VALIDATION_H_

#include <cstdint>
#include <vector>

#include "ged/ged.h"
#include "graph/graph.h"
#include "match/matcher.h"
#include "plan/plan.h"
#include "reason/policy.h"

namespace ged {

/// A violating match: h ⊨ X but h ⊭ Y for sigma[ged_index].
struct Violation {
  size_t ged_index;
  Match match;
  bool operator==(const Violation&) const = default;
};

/// The strict weak order of violation reports — (ged_index, match). All
/// sorted-violation invariants (SortViolationList, MergeViolations,
/// set-difference reconciliation in incr/) share this single definition.
inline bool ViolationLess(const Violation& a, const Violation& b) {
  if (a.ged_index != b.ged_index) return a.ged_index < b.ged_index;
  return a.match < b.match;
}

/// Knobs for Validate().
struct ValidationOptions {
  /// Keep at most this many violations per GED (0 = all): the
  /// ViolationLess-smallest ones, deterministically — the same report for
  /// any num_threads and either plan shape. The cap truncates the
  /// report, it does not bound the scan.
  uint64_t max_violations_per_ged = 0;
  /// Homomorphism (paper semantics) or subgraph isomorphism ([19,23]
  /// baseline).
  MatchSemantics semantics = MatchSemantics::kHomomorphism;
  /// Worker threads; 1 = serial. Results are identical and deterministic
  /// (violations are sorted, caps keep the smallest) regardless of thread
  /// count.
  unsigned num_threads = 1;
  /// Matcher toggles (for the ablation bench).
  bool degree_filter = true;
  bool smart_order = true;
  /// The coherent execution policy (reason/policy.h): join strategy, SIMD
  /// kernel backend, plan shape, snapshot mode, incremental commit backend.
  /// Validate with ValidateExecutionPolicy / IncrementalValidator::Create
  /// to get InvalidArgument on inert combinations before work starts.
  ///
  /// Semantics the policy carries:
  ///   * join: worst-case-optimal k-way intersection vs the pick-smallest-
  ///     list generator. Reports are identical either way; kAuto leapfrogs
  ///     wherever the backend has sorted columnar spans.
  ///   * plan: how Σ compiles — isomorphic rules share one bucket, or one
  ///     bucket per rule over its own premise-unified pattern (differential
  ///     testing and ablation); reports are bit-identical.
  ///   * snapshot: freeze a mutable Graph into a FrozenGraph CSR before
  ///     full validation. The freeze costs one O(|V| + |E| log d) pass, so
  ///     kAuto engages above an amortization cutoff (and always under
  ///     join=kLeapfrog, which needs the CSR); kNever scans the mutable
  ///     adjacency (freeze-cost studies). Full Validate on a mutable Graph
  ///     only — incremental building blocks and FrozenGraph overloads are
  ///     unaffected.
  ///   * commit_backend: IncrementalValidator re-scans through an
  ///     OverlayView delta overlay (CSR label ranges + leapfrog, like full
  ///     validation) vs the mutable graph directly (pre-overlay baseline);
  ///     reports are bit-identical (tests/overlay_test.cc).
  ExecutionPolicy policy;
  /// Re-freeze cutoff (IncrementalValidator, commit_backend=kOverlay): once
  /// overlay's side index outweighs this many entries (OverlayView::
  /// DeltaWeight), a background thread compacts it into a fresh FrozenGraph
  /// base and the validator swaps to a new overlay epoch at the next commit
  /// boundary. 0 disables background re-freeze (the overlay grows unbounded).
  size_t overlay_refreeze_cutoff = 4096;
  /// Step budget per matcher scan (0 = unlimited): each enumeration task
  /// aborts after this many search-tree nodes, and the GEDs whose scans
  /// were truncated are listed in ValidationReport::aborted_geds. A
  /// truncated report may miss violations — this is a defense bound for
  /// adversarial patterns, not a sampling knob. IncrementalValidator forces
  /// it to 0, and the edge-seeded incremental scans ignore it (a truncated
  /// re-scan would break exact maintenance).
  uint64_t max_steps_per_scan = 0;
  /// Observability sinks (obs/obs.h): metrics registry, trace spans and the
  /// EXPLAIN profiler. Default-disabled; enabling must not change any
  /// report (pinned by tests/obs_test.cc).
  ObsOptions obs;
  /// Crash safety for the incremental validator (reason/policy.h): when
  /// `durability.dir` is set, every Commit appends the delta to a
  /// write-ahead log *before* the in-memory apply, background re-freezes
  /// piggyback binary checkpoints, and IncrementalValidator::Recover(dir)
  /// rebuilds graph + live report from checkpoint + WAL-suffix replay.
  /// Ignored by full (non-incremental) validation. Default-disabled.
  DurabilityOptions durability;
};

/// Validation outcome.
struct ValidationReport {
  /// True iff G ⊨ Σ.
  bool satisfied = true;
  /// All violations found (sorted by ged_index, then match).
  std::vector<Violation> violations;
  /// Total (match, rule) pairs inspected across all GEDs, where a match is
  /// one of the rule's premise-unified pattern (plan/plan.h): a match of the
  /// rule's pattern that binds two id-linked variables to different nodes
  /// is never enumerated, and rules that cannot fire under the semantics
  /// count 0. Identical between the two plan shapes: a bucket of r rules
  /// counts each enumerated match r times, exactly as r one-rule buckets
  /// would.
  uint64_t matches_checked = 0;
  /// GED indices (sorted, distinct) whose scan hit
  /// ValidationOptions::max_steps_per_scan — their violation lists may be
  /// incomplete. Empty when the budget is 0 or never reached.
  std::vector<size_t> aborted_geds;
  /// OK, or InvalidArgument when ValidateExecutionPolicy rejected
  /// options.policy for full validation; nothing was scanned then, and
  /// `satisfied` is false with no violations.
  Status status;
};

/// Checks G ⊨ Σ, reporting violations: compiles Σ under policy.plan, then
/// runs ValidateWithPlan. Under policy.snapshot = kAuto (the default) the
/// graph is frozen once above the amortization cutoff and scanned through
/// the CSR snapshot. Every Validate / ValidateWithPlan overload first checks
/// options.policy with ValidateExecutionPolicy(..., kValidation) — on the
/// pre-frozen and overlay backends with policy.snapshot treated as moot —
/// and returns the rejection in ValidationReport::status without scanning.
ValidationReport Validate(const Graph& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options = {});
/// Checks a pre-frozen snapshot (the serving path: freeze once, validate
/// many times — policy.snapshot is moot here).
ValidationReport Validate(const FrozenGraph& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options = {});

/// Validate() against a pre-compiled plan of the same Σ (amortizes
/// compilation across repeated validations; incr/ holds one per validator).
/// policy.plan is ignored — the plan's own shape is used.
ValidationReport ValidateWithPlan(const Graph& g, const RulesetPlan& plan,
                                  const ValidationOptions& options = {});
/// Pre-frozen + pre-compiled: the fully amortized serving configuration.
ValidationReport ValidateWithPlan(const FrozenGraph& g,
                                  const RulesetPlan& plan,
                                  const ValidationOptions& options = {});

/// Overlay overloads: scan a delta overlay (graph/overlay.h) directly — the
/// base is already CSR, so policy.snapshot is moot (never re-frozen here).
ValidationReport Validate(const OverlayView& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options = {});
ValidationReport ValidateWithPlan(const OverlayView& g,
                                  const RulesetPlan& plan,
                                  const ValidationOptions& options = {});

// ----- incremental building blocks (src/incr/ sits on these) ---------------
//
// Under append-only deltas (AddNode/AddEdge/SetAttr), matches never die —
// the old graph is a subgraph of the new one — and a match's X→Y status only
// changes if an attribute of a bound node changed. Every *new* match binds
// at least one delta-touched node. Violation maintenance is therefore exact:
// retract violations binding a touched node, re-scan only the touched region
// of the match space, merge.

/// Sorts by (ged_index, match) — the ValidationReport order invariant.
void SortViolationList(std::vector<Violation>* violations);

/// Truncates a sorted violation list to the `cap` ViolationLess-smallest
/// entries per GED (no-op when cap is 0). The deterministic-cap primitive
/// shared by every validation path.
void TruncateViolationsPerGed(std::vector<Violation>* violations,
                              uint64_t cap);

/// Removes every violation whose match binds a node in `touched` (sorted,
/// duplicate-free), preserving order; returns the number removed.
size_t EraseViolationsTouching(std::vector<Violation>* violations,
                               const std::vector<NodeId>& touched);

/// Merges sorted `fresh` into sorted `violations`, keeping the order
/// invariant. The two lists must be disjoint (guaranteed when `violations`
/// was filtered by EraseViolationsTouching and `fresh` comes from
/// ValidateTouchingWithPlan over the same touched set).
void MergeViolations(std::vector<Violation>* violations,
                     std::vector<Violation> fresh);

/// Validates only the matches of `plan` (compiled from Σ) that bind at least
/// one node of `touched` (sorted, duplicate-free): the report lists exactly
/// the violations among those matches, sorted. Work is partitioned across
/// options.num_threads by (bucket, pin variable, touched-candidate chunk),
/// reusing the parallel scheme of Validate(). Patterns with no variables
/// contribute nothing (their single empty match binds no node).
ValidationReport ValidateTouchingWithPlan(const Graph& g,
                                          const RulesetPlan& plan,
                                          const std::vector<NodeId>& touched,
                                          const ValidationOptions& options = {});
ValidationReport ValidateTouchingWithPlan(const OverlayView& g,
                                          const RulesetPlan& plan,
                                          const std::vector<NodeId>& touched,
                                          const ValidationOptions& options = {});

/// Violating matches of `plan` (compiled from Σ) that can map a pattern edge
/// onto one of the `seeds`: for each (bucket pattern, pattern edge (u,ι,v)),
/// one batched run restricts h(u) to the compatible seed sources and h(v)
/// to the compatible seed targets (ι ≼ seed label, endpoint labels
/// ≼-compatible). This covers every match an edge insert between
/// pre-existing nodes can create, slightly over-approximated: h(u)/h(v) may
/// pair endpoints of different seeds via a pre-existing edge, and parallel
/// edges are indistinguishable from the seed — so the result (sorted,
/// duplicate-free) may re-find matches that already existed, and callers
/// holding a maintained report reconcile by set-difference. `checked` is
/// incremented per (match, rule) inspected (before deduplication).
/// options.max_violations_per_ged is intentionally NOT honored here:
/// truncating the seeded scan would break the set-difference reconciliation
/// that keeps incremental maintenance exact.
std::vector<Violation> FindViolationsSeededByEdgesWithPlan(
    const Graph& g, const RulesetPlan& plan,
    const std::vector<EdgeTriple>& seeds, const ValidationOptions& options,
    uint64_t* checked);
std::vector<Violation> FindViolationsSeededByEdgesWithPlan(
    const OverlayView& g, const RulesetPlan& plan,
    const std::vector<EdgeTriple>& seeds, const ValidationOptions& options,
    uint64_t* checked);

}  // namespace ged

#endif  // GEDLIB_REASON_VALIDATION_H_
