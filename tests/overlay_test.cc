// OverlayView backend-equivalence suite: the delta overlay must be
// indistinguishable from the mutable Graph it mirrors and from a freshly
// frozen CSR snapshot — match sets, violation reports and matches_checked,
// bit-identical — across homomorphism/isomorphism, compiled/per-rule plans,
// serial/parallel fan-out and the intersection toggle, and across the
// background re-freeze epoch swap of IncrementalValidator.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "graph/frozen.h"
#include "graph/overlay.h"
#include "incr/delta.h"
#include "incr/incremental.h"
#include "match/matcher.h"
#include "reason/validation.h"
#include "validator_testing.h"

namespace ged {
namespace {

std::shared_ptr<const FrozenGraph> FreezeShared(const Graph& g) {
  return std::make_shared<const FrozenGraph>(FrozenGraph::Freeze(g));
}

// The full sorted read surface of two CSR-ordered views must agree
// element-wise (FrozenGraph and OverlayView both keep adjacency sorted by
// (label, other) and attributes sorted by key, so no normalization needed).
template <typename A, typename B>
void ExpectSameReadSurface(const A& a, const B& b, const std::string& what) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes()) << what;
  ASSERT_EQ(a.NumEdges(), b.NumEdges()) << what;
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    std::string ctx = what + " node " + std::to_string(v);
    EXPECT_EQ(a.label(v), b.label(v)) << ctx;
    std::span<const Edge> ao = a.out(v), bo = b.out(v);
    ASSERT_EQ(ao.size(), bo.size()) << ctx;
    EXPECT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin())) << ctx;
    std::span<const Edge> ai = a.in(v), bi = b.in(v);
    ASSERT_EQ(ai.size(), bi.size()) << ctx;
    EXPECT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin())) << ctx;
    std::span<const AttrId> ak = a.AttrNames(v), bk = b.AttrNames(v);
    ASSERT_EQ(ak.size(), bk.size()) << ctx;
    EXPECT_TRUE(std::equal(ak.begin(), ak.end(), bk.begin())) << ctx;
    std::span<const Value> av = a.AttrValues(v), bv = b.AttrValues(v);
    ASSERT_EQ(av.size(), bv.size()) << ctx;
    EXPECT_TRUE(std::equal(av.begin(), av.end(), bv.begin())) << ctx;
    // Columnar neighbor spans, per label actually present.
    for (const Edge& e : ao) {
      std::span<const NodeId> an = a.OutNeighborsLabeled(v, e.label);
      std::span<const NodeId> bn = b.OutNeighborsLabeled(v, e.label);
      ASSERT_EQ(an.size(), bn.size()) << ctx;
      EXPECT_TRUE(std::equal(an.begin(), an.end(), bn.begin())) << ctx;
    }
  }
  // Label index agreement over every label either side knows.
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    std::span<const NodeId> an = a.NodesWithLabel(a.label(v));
    std::span<const NodeId> bn = b.NodesWithLabel(b.label(v));
    ASSERT_EQ(an.size(), bn.size()) << what;
    EXPECT_TRUE(std::equal(an.begin(), an.end(), bn.begin())) << what;
  }
}

// A random append-only op stream applied identically to a mutable Graph and
// an OverlayView (the same mutation surface by design).
template <typename Backend>
void ApplyOps(Backend* g, std::mt19937* rng, size_t num_ops,
              const RandomGraphParams& gp) {
  for (size_t i = 0; i < num_ops; ++i) {
    size_t n = g->NumNodes();
    switch ((*rng)() % 8) {
      case 0:
      case 1: {
        NodeId v = g->AddNode(GenNodeLabel((*rng)() % gp.num_node_labels));
        g->SetAttr(v, GenAttr((*rng)() % gp.num_attrs),
                   Value(static_cast<int64_t>((*rng)() % gp.num_values)));
        break;
      }
      case 2:
      case 3:
      case 4:
      case 5: {
        g->AddEdge(static_cast<NodeId>((*rng)() % n),
                   GenEdgeLabel((*rng)() % gp.num_edge_labels),
                   static_cast<NodeId>((*rng)() % n));
        break;
      }
      default: {
        g->SetAttr(static_cast<NodeId>((*rng)() % n),
                   GenAttr((*rng)() % gp.num_attrs),
                   Value(static_cast<int64_t>((*rng)() % gp.num_values)));
        break;
      }
    }
  }
}

// ----- direct OverlayView semantics -----------------------------------------

TEST(OverlayView, UntouchedNodesServeBaseSpansInPlace) {
  RandomGraphParams gp;
  gp.num_nodes = 30;
  gp.seed = 3;
  Graph g = RandomPropertyGraph(gp);
  auto base = FreezeShared(g);
  OverlayView o(base, /*epoch=*/7);
  EXPECT_EQ(o.epoch(), 7u);
  EXPECT_EQ(o.DeltaWeight(), 0u);
  EXPECT_EQ(o.NumNewNodes(), 0u);
  // Zero-copy reads: the spans of an untouched node alias the base arrays.
  for (NodeId v = 0; v < o.NumNodes(); ++v) {
    EXPECT_EQ(o.out(v).data(), base->out(v).data());
    EXPECT_EQ(o.in(v).data(), base->in(v).data());
    EXPECT_EQ(o.AttrNames(v).data(), base->AttrNames(v).data());
  }
  // One mutation copies exactly the touched node's ranges, nothing else.
  NodeId src = 0, dst = 1;
  size_t before_out = base->OutDegree(src);
  ASSERT_TRUE(o.AddEdge(src, Sym("overlay_test_fresh_edge"), dst));
  EXPECT_GT(o.DeltaWeight(), 0u);
  EXPECT_NE(o.out(src).data(), base->out(src).data());
  EXPECT_EQ(o.OutDegree(src), before_out + 1);
  for (NodeId v = 2; v < o.NumNodes(); ++v) {
    EXPECT_EQ(o.out(v).data(), base->out(v).data());
  }
}

TEST(OverlayView, MutationsMirrorGraphExactly) {
  for (unsigned seed = 1; seed <= 4; ++seed) {
    RandomGraphParams gp;
    gp.num_nodes = 40;
    gp.avg_out_degree = 3.0;
    gp.seed = seed;
    Graph g = RandomPropertyGraph(gp);
    OverlayView o(FreezeShared(g));
    std::mt19937 rng_g(seed * 100), rng_o(seed * 100);
    ApplyOps(&g, &rng_g, 60, gp);
    ApplyOps(&o, &rng_o, 60, gp);
    // Same op stream ⇒ same graph: compare through the sorted CSR lens.
    FrozenGraph truth = FrozenGraph::Freeze(g);
    ExpectSameReadSurface(truth, o, "seed " + std::to_string(seed));
    EXPECT_EQ(o.NumNewNodes(), g.NumNodes() - gp.num_nodes);
  }
}

TEST(OverlayView, FreezeCompactsToTheSameSnapshot) {
  RandomGraphParams gp;
  gp.num_nodes = 50;
  gp.seed = 5;
  Graph g = RandomPropertyGraph(gp);
  OverlayView o(FreezeShared(g));
  std::mt19937 rng_g(9), rng_o(9);
  ApplyOps(&g, &rng_g, 80, gp);
  ApplyOps(&o, &rng_o, 80, gp);
  // Re-freezing the overlay must equal freezing the equivalent graph.
  FrozenGraph from_overlay = FrozenGraph::Freeze(o);
  FrozenGraph from_graph = FrozenGraph::Freeze(g);
  ExpectSameReadSurface(from_graph, from_overlay, "refreeze");
}

TEST(OverlayView, DuplicateEdgeAndNoOpAttrAreRejectedLikeGraph) {
  Graph g;
  NodeId a = g.AddNode("n");
  NodeId b = g.AddNode("n");
  g.AddEdge(a, "e", b);
  g.SetAttr(a, "k", Value(1));
  OverlayView o(FreezeShared(g));
  EXPECT_FALSE(o.AddEdge(a, Sym("e"), b));
  EXPECT_TRUE(o.AddEdge(b, Sym("e"), a));
  EXPECT_FALSE(o.AddEdge(b, Sym("e"), a));
  EXPECT_FALSE(o.SetAttr(a, Sym("k"), Value(1)));
  EXPECT_TRUE(o.SetAttr(a, Sym("k"), Value(2)));
  EXPECT_EQ(o.NumEdges(), 2u);
  EXPECT_TRUE(o.HasEdge(b, Sym("e"), a));
  EXPECT_TRUE(o.HasEdge(b, kWildcard, a));
  EXPECT_FALSE(o.HasEdge(a, Sym("x"), b));
  EXPECT_EQ(*o.attr(a, Sym("k")), Value(2));
}

// ----- validation equivalence matrix ----------------------------------------

// overlay ≡ mutable ≡ freshly-frozen, bit-identical reports, across every
// (semantics, plan, threads, intersection) corner.
void ExpectBackendsAgree(const Graph& g, const OverlayView& o,
                         const std::vector<Ged>& sigma,
                         const std::string& what) {
  FrozenGraph f = FrozenGraph::Freeze(g);
  for (MatchSemantics sem :
       {MatchSemantics::kHomomorphism, MatchSemantics::kIsomorphism}) {
    for (bool compiled : {true, false}) {
      for (unsigned threads : {1u, 4u}) {
        for (bool intersect : {true, false}) {
          ValidationOptions opts;
          opts.semantics = sem;
          opts.policy.plan =
              compiled ? PlanMode::kCompiled : PlanMode::kPerRule;
          opts.num_threads = threads;
          opts.policy.join =
              intersect ? JoinStrategy::kAuto : JoinStrategy::kPickSmallest;
          opts.policy.snapshot = SnapshotMode::kNever;
          std::string ctx =
              what + (sem == MatchSemantics::kHomomorphism ? " [hom" : " [iso") +
              (compiled ? ", compiled" : ", per-rule") +
              ", threads=" + std::to_string(threads) +
              (intersect ? ", lf]" : ", no-lf]");
          ValidationReport mut = Validate(g, sigma, opts);
          ValidationReport ovl = Validate(o, sigma, opts);
          ValidationReport frz = Validate(f, sigma, opts);
          EXPECT_EQ(mut.satisfied, ovl.satisfied) << ctx;
          EXPECT_EQ(mut.violations, ovl.violations) << ctx;
          EXPECT_EQ(mut.matches_checked, ovl.matches_checked) << ctx;
          EXPECT_EQ(frz.violations, ovl.violations) << ctx;
          EXPECT_EQ(frz.matches_checked, ovl.matches_checked) << ctx;
        }
      }
    }
  }
}

TEST(OverlayEquivalence, RandomGraphsAndRulesets) {
  for (unsigned seed = 1; seed <= 3; ++seed) {
    RandomGraphParams gp;
    gp.num_nodes = 60;
    gp.avg_out_degree = 4.0;
    gp.num_node_labels = 3;
    gp.num_edge_labels = 2;
    gp.seed = seed;
    Graph g = RandomPropertyGraph(gp);
    OverlayView o(FreezeShared(g));
    std::mt19937 rng_g(seed * 7), rng_o(seed * 7);
    ApplyOps(&g, &rng_g, 50, gp);
    ApplyOps(&o, &rng_o, 50, gp);
    RandomGedParams rp;
    rp.kind = GedClassKind::kGed;
    rp.pattern_vars = 3;
    rp.pattern_edges = 3;
    rp.num_node_labels = 3;
    rp.num_edge_labels = 2;
    rp.seed = seed + 1;
    ExpectBackendsAgree(g, o, RandomGeds(4, rp),
                        "random seed " + std::to_string(seed));
  }
}

TEST(OverlayEquivalence, DenseCommunityWithCliquePatterns) {
  // The intersection-heavy regime: clique patterns over a dense overlay
  // whose side index holds copied high-degree adjacency.
  DenseParams dp;
  dp.num_members = 96;
  dp.community_size = 32;
  dp.follows_per_member = 12;
  DenseInstance dense = GenDenseCommunity(dp);
  Graph g = dense.graph;
  OverlayView o(FreezeShared(g));
  std::mt19937 rng(31);
  for (int i = 0; i < 40; ++i) {
    NodeId src = static_cast<NodeId>(rng() % 32);  // stay in one community
    NodeId dst = static_cast<NodeId>(rng() % 32);
    Label follows = Sym("follows");
    bool a = g.AddEdge(src, follows, dst);
    bool b = o.AddEdge(src, follows, dst);
    EXPECT_EQ(a, b);
  }
  ExpectBackendsAgree(g, o, DenseCliqueGeds(), "dense community");
}

TEST(OverlayEquivalence, CardsPackageRevisionScenario) {
  CardsParams cp;
  cp.num_packages = 24;
  cp.revisions_per_package = 4;
  CardsInstance cards = GenCardsBase(cp);
  Graph g = cards.graph;
  OverlayView o(FreezeShared(g));
  // A release wave: new revisions of existing packages, deps onto the core.
  std::mt19937 rng(17);
  for (int i = 0; i < 12; ++i) {
    NodeId pkg = cards.packages[rng() % cards.packages.size()];
    Label rev_label = Sym("revision");
    NodeId rg = g.AddNode(rev_label);
    NodeId ro = o.AddNode(rev_label);
    ASSERT_EQ(rg, ro);
    g.SetAttr(rg, "license", Value(i % 5 == 0 ? "gpl" : "mit"));
    o.SetAttr(ro, Sym("license"), Value(i % 5 == 0 ? "gpl" : "mit"));
    g.AddEdge(pkg, "has_revision", rg);
    o.AddEdge(pkg, Sym("has_revision"), ro);
    for (int k = 0; k < 3; ++k) {
      NodeId dep = static_cast<NodeId>(cp.num_packages + rng() % 8);
      g.AddEdge(rg, "depends_on", dep);
      o.AddEdge(ro, Sym("depends_on"), dep);
    }
  }
  ExpectBackendsAgree(g, o, CardsGeds(), "cards");
}

TEST(OverlayEquivalence, MatcherAgreesOnOverlay) {
  RandomGraphParams gp;
  gp.num_nodes = 50;
  gp.seed = 12;
  Graph g = RandomPropertyGraph(gp);
  OverlayView o(FreezeShared(g));
  std::mt19937 rng_g(4), rng_o(4);
  ApplyOps(&g, &rng_g, 40, gp);
  ApplyOps(&o, &rng_o, 40, gp);
  Pattern q;
  VarId a = q.AddVar("a", GenNodeLabel(0));
  VarId b = q.AddVar("b", kWildcard);
  VarId c = q.AddVar("c", GenNodeLabel(1));
  q.AddEdge(a, GenEdgeLabel(0), b);
  q.AddEdge(b, GenEdgeLabel(1), c);
  q.AddEdge(a, GenEdgeLabel(1), c);
  for (MatchSemantics sem :
       {MatchSemantics::kHomomorphism, MatchSemantics::kIsomorphism}) {
    MatchOptions opts;
    opts.semantics = sem;
    std::vector<Match> mg = AllMatches(q, g, opts);
    std::vector<Match> mo = AllMatches(q, o, opts);
    std::sort(mg.begin(), mg.end());
    std::sort(mo.begin(), mo.end());
    EXPECT_EQ(mg, mo);
    EXPECT_EQ(CountMatches(q, g, opts), CountMatches(q, o, opts));
  }
}

// ----- GraphDelta over the overlay ------------------------------------------

TEST(OverlayDelta, ApplyMirrorsGraphApply) {
  RandomGraphParams gp;
  gp.num_nodes = 30;
  gp.seed = 8;
  Graph g = RandomPropertyGraph(gp);
  OverlayView o(FreezeShared(g));
  GraphDelta d(g);
  NodeId n1 = d.AddNode("fresh");
  d.SetAttr(n1, "k", Value(5));
  d.AddEdge(0, GenEdgeLabel(0), n1);
  d.AddEdge(n1, GenEdgeLabel(1), 1);
  auto ag = d.Apply(&g);
  auto ao = d.Apply(&o);
  ASSERT_TRUE(ag.ok());
  ASSERT_TRUE(ao.ok());
  EXPECT_EQ(ag.value().touched, ao.value().touched);
  EXPECT_EQ(ag.value().cross_edges, ao.value().cross_edges);
  EXPECT_EQ(ag.value().edges_added, ao.value().edges_added);
  ExpectSameReadSurface(FrozenGraph::Freeze(g), o, "delta mirror");
}

TEST(OverlayDelta, StaleBaseRejectedOnBothBackends) {
  Graph g;
  g.AddNode("n");
  OverlayView o(FreezeShared(g));
  GraphDelta d(g);
  g.AddNode("n");
  o.AddNode(Sym("n"));
  EXPECT_FALSE(d.Check(g).ok());
  EXPECT_FALSE(d.Check(o).ok());
  EXPECT_FALSE(d.Apply(&o).ok());
}

// ----- re-freeze epoch swap -------------------------------------------------

void RunRefreezeStream(unsigned threads, bool intersect, unsigned seed) {
  RandomGraphParams gp;
  gp.num_nodes = 40;
  gp.avg_out_degree = 3.0;
  gp.seed = seed;
  RandomGedParams rp;
  rp.kind = GedClassKind::kGed;
  rp.pattern_vars = 3;
  rp.pattern_edges = 2;
  rp.seed = seed + 1;
  ValidationOptions opts;
  opts.num_threads = threads;
  opts.policy.join =
      intersect ? JoinStrategy::kAuto : JoinStrategy::kPickSmallest;
  // Tiny cutoff: every commit's side index trips a background re-freeze,
  // so the stream crosses many epoch swaps.
  opts.overlay_refreeze_cutoff = 1;
  auto v = CreateValidator(RandomPropertyGraph(gp), RandomGeds(4, rp), opts);
  std::mt19937 rng(seed + 2);
  uint64_t first_epoch = v->overlay_epoch();
  for (int commit = 0; commit < 6; ++commit) {
    GraphDelta d = v->NewDelta();
    NodeId n = d.AddNode(GenNodeLabel(rng() % gp.num_node_labels));
    d.SetAttr(n, GenAttr(rng() % gp.num_attrs),
              Value(static_cast<int64_t>(rng() % gp.num_values)));
    d.AddEdge(static_cast<NodeId>(rng() % v->graph().NumNodes()),
              GenEdgeLabel(rng() % gp.num_edge_labels), n);
    ASSERT_TRUE(v->Commit(d).ok());
    // Deterministic boundary: force the in-flight re-freeze through and
    // re-check the report on the new epoch's overlay.
    v->FinishRefreeze();
    ValidationReport oracle = v->RevalidateFull();
    EXPECT_EQ(v->report().satisfied, oracle.satisfied);
    EXPECT_EQ(v->report().violations, oracle.violations);
    // The swapped-in overlay must mirror the authoritative graph exactly.
    ExpectSameReadSurface(FrozenGraph::Freeze(v->graph()), v->overlay(),
                          "epoch " + std::to_string(v->overlay_epoch()));
  }
  EXPECT_GT(v->overlay_epoch(), first_epoch);
  EXPECT_GT(v->last_commit().refreezes_adopted, 0u);
  EXPECT_GE(v->last_commit().refreezes_started,
            v->last_commit().refreezes_adopted);
}

TEST(OverlayRefreeze, ReportsSurviveEpochSwaps) {
  RunRefreezeStream(/*threads=*/1, /*intersect=*/true, /*seed=*/41);
  RunRefreezeStream(/*threads=*/4, /*intersect=*/true, /*seed=*/42);
  RunRefreezeStream(/*threads=*/1, /*intersect=*/false, /*seed=*/43);
}

TEST(OverlayRefreeze, SnapshotSurvivesSwap) {
  // A reader holding the pre-swap base must stay valid after adoption
  // (epoch pinning via shared_ptr).
  KbInstance kb = GenKnowledgeBase(KbParams{});
  ValidationOptions opts;
  opts.overlay_refreeze_cutoff = 1;
  auto v = CreateValidator(kb.graph, Example1Geds(), opts);
  std::shared_ptr<const FrozenGraph> pinned = v->overlay().base();
  size_t pinned_nodes = pinned->NumNodes();
  GraphDelta d = v->NewDelta();
  NodeId p = d.AddNode("product");
  d.SetAttr(p, "type", Value("book"));
  ASSERT_TRUE(v->Commit(d).ok());
  v->FinishRefreeze();
  EXPECT_GT(v->overlay_epoch(), 0u);
  // The old snapshot is unchanged even though the validator moved on.
  EXPECT_EQ(pinned->NumNodes(), pinned_nodes);
  EXPECT_LT(pinned_nodes, v->overlay().NumNodes());
}

TEST(OverlayRefreeze, DisabledCutoffNeverRefreezes) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  ValidationOptions opts;
  opts.overlay_refreeze_cutoff = 0;
  auto v = CreateValidator(kb.graph, Example1Geds(), opts);
  for (int i = 0; i < 3; ++i) {
    GraphDelta d = v->NewDelta();
    NodeId p = d.AddNode("product");
    d.SetAttr(p, "type", Value("book"));
    ASSERT_TRUE(v->Commit(d).ok());
  }
  EXPECT_FALSE(v->RefreezeInFlight());
  EXPECT_FALSE(v->FinishRefreeze());
  EXPECT_EQ(v->overlay_epoch(), 0u);
  EXPECT_EQ(v->last_commit().refreezes_started, 0u);
}

}  // namespace
}  // namespace ged
