// Premise unification: id literals of X folded into the pattern.
//
// A match h satisfies an id premise x.id = y.id iff h(x) = h(y). So the
// matches of Q[x̄] that satisfy X's id premises are exactly the matches of
// the quotient pattern Q/~, where ~ is the equivalence that X's id literals
// generate on x̄, composed with the quotient map x̄ → x̄/~. Enumerating Q/~
// instead of Q skips every match that binds a linked pair to two different
// nodes — for the paper's recursive GKeys (Example 3: ψ1 and ψ3 join two
// disconnected copies only through an id premise) that turns a cross product
// into a join along the shared node.
//
// The rewrite is exact under homomorphism. Under subgraph isomorphism
// (injective h) an id premise between distinct variables never holds, so a
// rule whose premise links two variables is vacuous there.

#ifndef GEDLIB_GED_UNIFY_H_
#define GEDLIB_GED_UNIFY_H_

#include <vector>

#include "ged/literal.h"
#include "graph/pattern.h"
#include "match/matcher.h"

namespace ged {

/// Q/~ for one rule, plus what a caller needs to map back to the rule.
struct UnifiedPremise {
  /// The quotient pattern: one variable per ~-class, numbered by the class's
  /// smallest member; edges remapped and deduplicated (self-loops allowed).
  /// A class takes its members' concrete label, or '_' when all are
  /// wildcards. Equal to the rule's pattern when nothing merges.
  Pattern pattern;
  /// to_quotient[x] is the quotient variable of rule variable x.
  std::vector<VarId> to_quotient;
  /// X without its id literals, over the *rule's* variables (every dropped
  /// literal holds on every expanded quotient match).
  std::vector<Literal> x;
  /// True iff some id premise links two distinct variables.
  bool merges = false;
  /// True iff a class holds two different concrete labels: no node carries
  /// both, so no match of Q satisfies X.
  bool vacuous = false;

  /// The rule-arity match h∘π of quotient match `h`: out[x] =
  /// h[to_quotient[x]].
  void Expand(const Match& h, Match* out) const;
};

/// Computes Q/~ for the rule Q[x̄](X → ·).
UnifiedPremise UnifyIdPremises(const Pattern& q,
                               const std::vector<Literal>& x);

}  // namespace ged

#endif  // GEDLIB_GED_UNIFY_H_
