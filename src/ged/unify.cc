#include "ged/unify.h"

#include <algorithm>
#include <string>

#include "common/union_find.h"

namespace ged {

void UnifiedPremise::Expand(const Match& h, Match* out) const {
  out->resize(to_quotient.size());
  for (VarId x = 0; x < to_quotient.size(); ++x) {
    (*out)[x] = h[to_quotient[x]];
  }
}

UnifiedPremise UnifyIdPremises(const Pattern& q,
                               const std::vector<Literal>& x) {
  UnifiedPremise out;
  size_t n = q.NumVars();
  UnionFind classes(n);
  for (const Literal& l : x) {
    if (l.kind != LiteralKind::kId) {
      out.x.push_back(l);
      continue;
    }
    if (classes.Union(l.x, l.y) != UINT32_MAX) out.merges = true;
  }
  out.to_quotient.resize(n);
  if (!out.merges) {
    out.pattern = q;
    for (VarId v = 0; v < n; ++v) out.to_quotient[v] = v;
    return out;
  }

  // Quotient variables in order of their smallest member.
  std::vector<VarId> of_root(n, Pattern::kNoVar);
  std::vector<Label> labels;
  std::vector<std::string> names;
  for (VarId v = 0; v < n; ++v) {
    VarId& qv = of_root[classes.Find(v)];
    Label l = q.label(v);
    if (qv == Pattern::kNoVar) {
      qv = static_cast<VarId>(labels.size());
      labels.push_back(l);
      names.push_back(q.var_name(v));
    } else {
      names[qv] += "=" + q.var_name(v);
      if (l != kWildcard) {
        if (labels[qv] == kWildcard) {
          labels[qv] = l;
        } else if (labels[qv] != l) {
          out.vacuous = true;
        }
      }
    }
    out.to_quotient[v] = qv;
  }
  for (size_t i = 0; i < labels.size(); ++i) {
    out.pattern.AddVar(std::move(names[i]), labels[i]);
  }
  const std::vector<Pattern::PEdge>& edges = out.pattern.edges();
  for (const Pattern::PEdge& e : q.edges()) {
    Pattern::PEdge qe{out.to_quotient[e.src], e.label, out.to_quotient[e.dst]};
    if (std::find(edges.begin(), edges.end(), qe) != edges.end()) continue;
    out.pattern.AddEdge(qe.src, qe.label, qe.dst);
  }
  return out;
}

}  // namespace ged
