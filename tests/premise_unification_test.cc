// Premise unification (ged/unify.h): folding X's id literals into the
// pattern must not change what any evaluator reports. The oracle here is the
// naive definition — every match of each rule's *original* pattern, X and Y
// checked literally — and a copy of the chase loop as it ran before the
// rewrite. Validation (every backend, plan shape, semantics and thread
// count), the touching scan, an incremental music stream, the chase and the
// proof generator are held against them, plus hand-written corner cases of
// the rewrite itself.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>

#include "axiom/checker.h"
#include "axiom/generator.h"
#include "chase/chase.h"
#include "ged/parser.h"
#include "ged/unify.h"
#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "graph/overlay.h"
#include "incr/delta.h"
#include "plan/plan.h"
#include "reason/validation.h"
#include "validator_testing.h"

namespace ged {
namespace {

// ----- oracles --------------------------------------------------------------

// Every violation of Σ by definition: all matches of the original patterns.
std::vector<Violation> NaiveViolations(const Graph& g,
                                       const std::vector<Ged>& sigma,
                                       MatchSemantics sem) {
  MatchOptions mopts;
  mopts.semantics = sem;
  std::vector<Violation> out;
  for (size_t i = 0; i < sigma.size(); ++i) {
    const Ged& phi = sigma[i];
    for (const Match& h : AllMatches(phi.pattern(), g, mopts)) {
      if (!SatisfiesAll(g, h, phi.X())) continue;
      if (!phi.is_forbidding() && SatisfiesAll(g, h, phi.Y())) continue;
      out.push_back(Violation{i, h});
    }
  }
  SortViolationList(&out);
  return out;
}

// The naive violations whose match binds a node of `touched` (sorted).
std::vector<Violation> NaiveTouching(const Graph& g,
                                     const std::vector<Ged>& sigma,
                                     const std::vector<NodeId>& touched) {
  std::vector<Violation> all =
      NaiveViolations(g, sigma, MatchSemantics::kHomomorphism);
  std::vector<Violation> out;
  for (Violation& v : all) {
    for (NodeId n : v.match) {
      if (std::binary_search(touched.begin(), touched.end(), n)) {
        out.push_back(std::move(v));
        break;
      }
    }
  }
  return out;
}

// The chase loop as it ran before premise unification: every round matches
// each rule's original pattern in the coercion and checks X, id premises
// included, against the live Eq.
struct NaiveChaseResult {
  bool consistent = false;
  EqRel eq;
};

NaiveChaseResult NaiveChase(const Graph& base, const std::vector<Ged>& sigma,
                            unsigned order_seed) {
  NaiveChaseResult res{false, EqRel(base)};
  EqRel& eq = res.eq;
  std::mt19937 rng(order_seed);
  for (bool changed = true; changed;) {
    changed = false;
    Coercion co = BuildCoercion(eq);
    std::vector<size_t> rule_order(sigma.size());
    for (size_t i = 0; i < sigma.size(); ++i) rule_order[i] = i;
    if (order_seed != 0) {
      std::shuffle(rule_order.begin(), rule_order.end(), rng);
    }
    for (size_t idx : rule_order) {
      const Ged& phi = sigma[idx];
      std::vector<Match> matches = AllMatches(phi.pattern(), co.graph);
      if (order_seed != 0) std::shuffle(matches.begin(), matches.end(), rng);
      for (const Match& h : matches) {
        Match bm(h.size());
        for (size_t i = 0; i < h.size(); ++i) bm[i] = co.rep[h[i]];
        bool x_sat = true;
        for (const Literal& l : phi.X()) {
          if (!LiteralHoldsAt(eq, bm, l)) {
            x_sat = false;
            break;
          }
        }
        if (!x_sat) continue;
        if (phi.is_forbidding()) return res;
        for (const Literal& l : phi.Y()) {
          if (LiteralHoldsAt(eq, bm, l)) continue;
          ApplyLiteralAt(&eq, bm, l);
          changed = true;
          if (eq.inconsistent()) return res;
        }
      }
    }
  }
  res.consistent = true;
  return res;
}

// The node partition of `eq`: each base node mapped to its class's smallest
// member.
std::vector<NodeId> Partition(const EqRel& eq) {
  std::map<NodeId, NodeId> min_of_root;
  size_t n = eq.base().NumNodes();
  for (NodeId v = 0; v < n; ++v) min_of_root.emplace(eq.NodeRoot(v), v);
  std::vector<NodeId> out(n);
  for (NodeId v = 0; v < n; ++v) out[v] = min_of_root.at(eq.NodeRoot(v));
  return out;
}

// `sigma` with an id premise linking variables 0 and 2 added to every other
// rule (random 3-variable rules are paths 2 → 1 → 0, so the premise closes
// them into a cycle).
std::vector<Ged> WithIdPremises(const std::vector<Ged>& sigma) {
  std::vector<Ged> out;
  for (const Ged& phi : sigma) {
    std::vector<Literal> x = phi.X();
    if (out.size() % 2 == 1) x.push_back(Literal::Id(0, 2));
    out.emplace_back(phi.name(), phi.pattern(), std::move(x), phi.Y(),
                     phi.is_forbidding());
  }
  return out;
}

bool AnyRuleMerges(const std::vector<Ged>& sigma) {
  for (const Ged& phi : sigma) {
    if (UnifyIdPremises(phi.pattern(), phi.X()).merges) return true;
  }
  return false;
}

std::vector<Ged> Parse(const char* text) {
  auto parsed = ParseGeds(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? parsed.Take() : std::vector<Ged>{};
}

// Validate / ValidateWithPlan on the Graph, a FrozenGraph snapshot and an
// overlay `o` holding the same graph, in both plan shapes, under `sem`, at 1
// and 4 threads — each against the naive oracle.
void ExpectEveryPathMatchesOracle(const Graph& g, const OverlayView& o,
                                  const std::vector<Ged>& sigma,
                                  MatchSemantics sem, const std::string& what) {
  std::vector<Violation> oracle = NaiveViolations(g, sigma, sem);
  FrozenGraph f = FrozenGraph::Freeze(g);
  for (PlanMode mode : {PlanMode::kCompiled, PlanMode::kPerRule}) {
    RulesetPlan plan = RulesetPlan::Compile(sigma, mode);
    for (unsigned threads : {1u, 4u}) {
      ValidationOptions opts;
      opts.semantics = sem;
      opts.num_threads = threads;
      opts.policy.plan = mode;
      std::string ctx =
          what + " [" + PlanModeName(mode) +
          (sem == MatchSemantics::kHomomorphism ? ", hom" : ", iso") +
          ", threads=" + std::to_string(threads) + "]";
      std::vector<ValidationReport> reports = {
          Validate(g, sigma, opts), ValidateWithPlan(g, plan, opts),
          Validate(f, sigma, opts), ValidateWithPlan(f, plan, opts),
          Validate(o, sigma, opts), ValidateWithPlan(o, plan, opts)};
      for (const ValidationReport& r : reports) {
        ASSERT_TRUE(r.status.ok()) << ctx;
        EXPECT_EQ(r.violations, oracle) << ctx;
        EXPECT_EQ(r.satisfied, oracle.empty()) << ctx;
        EXPECT_EQ(r.matches_checked, reports[0].matches_checked) << ctx;
      }
    }
  }
}

// ----- validation against the naive oracle ---------------------------------

TEST(PremiseUnificationOracle, RandomSigmaEveryBackendModeAndSemantics) {
  size_t merged_rule_violations = 0;
  for (GedClassKind kind : {GedClassKind::kGed, GedClassKind::kGedx}) {
    for (unsigned seed : {3u, 5u, 8u}) {
      RandomGraphParams gp;
      gp.num_nodes = 45;
      gp.num_node_labels = 3;
      gp.num_attrs = 2;
      gp.num_values = 3;
      gp.seed = seed;
      Graph g = RandomPropertyGraph(gp);
      RandomGedParams rp;
      rp.kind = kind;
      rp.num_node_labels = 3;
      rp.num_attrs = 2;
      rp.num_values = 3;
      rp.pattern_vars = 3;
      rp.pattern_edges = 2;
      rp.seed = seed + 100;
      std::vector<Ged> sigma = WithIdPremises(RandomGeds(8, rp));
      ASSERT_TRUE(AnyRuleMerges(sigma)) << "seed " << seed;

      // The overlay holds the same graph: a frozen base plus one delta in its
      // side index.
      OverlayView o(std::make_shared<FrozenGraph>(FrozenGraph::Freeze(g)));
      GraphDelta d(g);
      std::mt19937 rng(seed);
      for (int i = 0; i < 30; ++i) {
        NodeId a = static_cast<NodeId>(rng() % g.NumNodes());
        NodeId b = static_cast<NodeId>(rng() % g.NumNodes());
        d.AddEdge(a, GenEdgeLabel(rng() % gp.num_edge_labels), b);
        d.SetAttr(a, GenAttr(rng() % gp.num_attrs),
                  Value(static_cast<int64_t>(rng() % gp.num_values)));
      }
      ASSERT_TRUE(d.Apply(&g).ok());
      ASSERT_TRUE(d.Apply(&o).ok());

      std::string what =
          std::string(kind == GedClassKind::kGed ? "ged" : "gedx") +
          " seed=" + std::to_string(seed);
      for (MatchSemantics sem :
           {MatchSemantics::kHomomorphism, MatchSemantics::kIsomorphism}) {
        ExpectEveryPathMatchesOracle(g, o, sigma, sem, what);
      }
      for (const Violation& v :
           NaiveViolations(g, sigma, MatchSemantics::kHomomorphism)) {
        const Ged& phi = sigma[v.ged_index];
        if (UnifyIdPremises(phi.pattern(), phi.X()).merges) {
          ++merged_rule_violations;
        }
      }
    }
  }
  // The rewrite is exercised, not only skipped: rules whose premise links
  // two variables do report violations.
  EXPECT_GT(merged_rule_violations, 0u);
}

TEST(PremiseUnificationOracle, TouchingScanMatchesOracle) {
  RandomGraphParams gp;
  gp.num_nodes = 50;
  gp.num_node_labels = 3;
  gp.num_attrs = 2;
  gp.num_values = 3;
  gp.seed = 21;
  Graph g = RandomPropertyGraph(gp);
  RandomGedParams rp;
  rp.num_node_labels = 3;
  rp.num_attrs = 2;
  rp.num_values = 3;
  rp.pattern_vars = 3;
  rp.pattern_edges = 2;
  rp.seed = 22;
  std::vector<Ged> sigma = WithIdPremises(RandomGeds(8, rp));
  ASSERT_TRUE(AnyRuleMerges(sigma));
  OverlayView o(std::make_shared<FrozenGraph>(FrozenGraph::Freeze(g)));
  std::mt19937 rng(23);
  for (int round = 0; round < 4; ++round) {
    std::vector<NodeId> touched;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (rng() % 5 == 0) touched.push_back(v);
    }
    std::vector<Violation> oracle = NaiveTouching(g, sigma, touched);
    for (PlanMode mode : {PlanMode::kCompiled, PlanMode::kPerRule}) {
      RulesetPlan plan = RulesetPlan::Compile(sigma, mode);
      for (unsigned threads : {1u, 4u}) {
        ValidationOptions opts;
        opts.num_threads = threads;
        EXPECT_EQ(ValidateTouchingWithPlan(g, plan, touched, opts).violations,
                  oracle);
        EXPECT_EQ(ValidateTouchingWithPlan(o, plan, touched, opts).violations,
                  oracle);
      }
    }
  }
}

TEST(PremiseUnificationOracle, IncrementalMusicStreamTracksOracle) {
  const std::vector<Ged> keys = MusicKeys();
  const Label kAlbum = Sym("album"), kArtist = Sym("artist"), kBy = Sym("by");
  const AttrId kTitle = Sym("title"), kRelease = Sym("release"),
               kName = Sym("name");
  for (bool overlay : {true, false}) {
    MusicParams mp;
    mp.num_artists = 12;
    mp.seed = 4;
    ValidationOptions opts;
    opts.policy.commit_backend =
        overlay ? CommitBackend::kOverlay : CommitBackend::kMutable;
    auto v = CreateValidator(GenMusicBase(mp).graph, keys, opts);
    auto expect_oracle = [&](int commit) {
      EXPECT_EQ(v->report().violations,
                NaiveViolations(v->graph(), keys,
                                MatchSemantics::kHomomorphism))
          << "overlay=" << overlay << " commit " << commit;
    };
    expect_oracle(-1);
    std::mt19937 rng(77);
    for (int commit = 0; commit < 10; ++commit) {
      const Graph& g = v->graph();
      std::vector<NodeId> albums = g.NodesWithLabel(kAlbum);
      std::vector<NodeId> artists = g.NodesWithLabel(kArtist);
      GraphDelta d = v->NewDelta();
      // A duplicate album of an existing one, by the same artist (ψ1, ψ2).
      NodeId orig = albums[rng() % albums.size()];
      NodeId dup = d.AddNode(kAlbum);
      d.SetAttr(dup, kTitle, *g.attr(orig, kTitle));
      if (auto release = g.attr(orig, kRelease); release && rng() % 2 == 0) {
        d.SetAttr(dup, kRelease, *release);
      }
      d.AddEdge(dup, kBy, g.out(orig)[0].other);
      // A duplicate artist credited on an existing album (ψ3).
      NodeId artist = artists[rng() % artists.size()];
      NodeId twin = d.AddNode(kArtist);
      d.SetAttr(twin, kName, *g.attr(artist, kName));
      d.AddEdge(albums[rng() % albums.size()], kBy, twin);
      // A cross edge between pre-existing nodes (the edge-seeded re-scan).
      d.AddEdge(albums[rng() % albums.size()], kBy,
                artists[rng() % artists.size()]);
      ASSERT_TRUE(v->Commit(d).ok());
      expect_oracle(commit);
    }
  }
}

// ----- hand-written cases of the rewrite ------------------------------------

TEST(UnifyIdPremises, TransitiveChainCollapsesToOneVariable) {
  std::vector<Ged> sigma = Parse(R"(
    ged chain {
      match (x:n)-[e]->(w:m), (y:n), (z:_)
      where x.id = y.id, y.id = z.id, x.a = w.a
      then  x.b = 1
    })");
  ASSERT_EQ(sigma.size(), 1u);
  UnifiedPremise u = UnifyIdPremises(sigma[0].pattern(), sigma[0].X());
  EXPECT_TRUE(u.merges);
  EXPECT_FALSE(u.vacuous);
  ASSERT_EQ(u.pattern.NumVars(), 2u);
  EXPECT_EQ(u.to_quotient, (std::vector<VarId>{0, 1, 0, 0}));
  EXPECT_EQ(u.pattern.label(0), Sym("n"));
  EXPECT_EQ(u.pattern.label(1), Sym("m"));
  ASSERT_EQ(u.x.size(), 1u);
  EXPECT_EQ(u.x[0].kind, LiteralKind::kVar);

  Graph g;
  NodeId a = g.AddNode("n"), b = g.AddNode("m"), c = g.AddNode("n");
  g.AddEdge(a, "e", b);
  g.AddEdge(c, "e", b);
  g.SetAttr(a, "a", Value(1));
  g.SetAttr(b, "a", Value(1));
  OverlayView o(std::make_shared<FrozenGraph>(FrozenGraph::Freeze(g)));
  ExpectEveryPathMatchesOracle(g, o, sigma, MatchSemantics::kHomomorphism,
                               "chain");
  ValidationReport r = Validate(g, sigma);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].match, (Match{a, b, a, a}));
  // One unified match (a, b) per (match, rule) pair, instead of the 12
  // matches of the original pattern.
  EXPECT_EQ(r.matches_checked, 2u);
}

TEST(UnifyIdPremises, SelfIdLiteralMergesNothing) {
  std::vector<Ged> sigma = Parse(R"(
    ged self {
      match (x:n)-[e]->(y:n)
      where x.id = x.id
      then  x.a = y.a
    })");
  ASSERT_EQ(sigma.size(), 1u);
  UnifiedPremise u = UnifyIdPremises(sigma[0].pattern(), sigma[0].X());
  EXPECT_FALSE(u.merges);
  EXPECT_TRUE(u.x.empty());
  EXPECT_EQ(u.pattern, sigma[0].pattern());
  EXPECT_EQ(u.to_quotient, (std::vector<VarId>{0, 1}));

  // Under isomorphism the rule still fires: x.id = x.id always holds.
  Graph g;
  NodeId a = g.AddNode("n"), b = g.AddNode("n");
  g.AddEdge(a, "e", b);
  g.SetAttr(a, "a", Value(1));
  g.SetAttr(b, "a", Value(2));
  OverlayView o(std::make_shared<FrozenGraph>(FrozenGraph::Freeze(g)));
  for (MatchSemantics sem :
       {MatchSemantics::kHomomorphism, MatchSemantics::kIsomorphism}) {
    ExpectEveryPathMatchesOracle(g, o, sigma, sem, "self");
    ValidationOptions opts;
    opts.semantics = sem;
    EXPECT_EQ(Validate(g, sigma, opts).violations.size(), 1u);
  }
}

TEST(UnifyIdPremises, WildcardTakesTheConcreteLabel) {
  std::vector<Ged> sigma = Parse(R"(
    ged wild {
      match (x:_)-[e]->(z:m), (y:n)
      where y.id = x.id
      then  x.a = z.a
    })");
  ASSERT_EQ(sigma.size(), 1u);
  UnifiedPremise u = UnifyIdPremises(sigma[0].pattern(), sigma[0].X());
  ASSERT_EQ(u.pattern.NumVars(), 2u);
  EXPECT_EQ(u.pattern.label(0), Sym("n"));  // the class {x, y}
  EXPECT_EQ(u.pattern.label(1), Sym("m"));
  EXPECT_FALSE(u.vacuous);

  Graph g;
  NodeId n1 = g.AddNode("n"), k1 = g.AddNode("k"), m1 = g.AddNode("m");
  g.AddEdge(n1, "e", m1);
  g.AddEdge(k1, "e", m1);  // a k-node: matches x alone, never x = y
  g.SetAttr(m1, "a", Value(3));
  OverlayView o(std::make_shared<FrozenGraph>(FrozenGraph::Freeze(g)));
  ExpectEveryPathMatchesOracle(g, o, sigma, MatchSemantics::kHomomorphism,
                               "wildcard");
  ValidationReport r = Validate(g, sigma);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].match, (Match{n1, m1, n1}));
}

TEST(UnifyIdPremises, ConflictingLabelsMakeTheRuleVacuous) {
  std::vector<Ged> sigma = Parse(R"(
    ged clash {
      match (x:n), (y:m)
      where x.id = y.id
      then  false
    })");
  ASSERT_EQ(sigma.size(), 1u);
  UnifiedPremise u = UnifyIdPremises(sigma[0].pattern(), sigma[0].X());
  EXPECT_TRUE(u.vacuous);
  for (PlanMode mode : {PlanMode::kCompiled, PlanMode::kPerRule}) {
    RulesetPlan plan = RulesetPlan::Compile(sigma, mode);
    ASSERT_EQ(plan.buckets.size(), 1u);
    EXPECT_TRUE(plan.buckets[0].rules[0].vacuous);
  }

  Graph g;
  g.AddNode("n");
  g.AddNode("m");
  OverlayView o(std::make_shared<FrozenGraph>(FrozenGraph::Freeze(g)));
  for (MatchSemantics sem :
       {MatchSemantics::kHomomorphism, MatchSemantics::kIsomorphism}) {
    ExpectEveryPathMatchesOracle(g, o, sigma, sem, "clash");
    ValidationOptions opts;
    opts.semantics = sem;
    ValidationReport r = Validate(g, sigma, opts);
    EXPECT_TRUE(r.satisfied);
    EXPECT_EQ(r.matches_checked, 0u);  // never enumerated
  }
  ChaseResult chased = Chase(g, sigma);
  EXPECT_TRUE(chased.consistent);
}

TEST(UnifyIdPremises, MergeCreatesSelfLoopAndDeduplicatesEdges) {
  std::vector<Ged> sigma = Parse(R"(
    ged loop {
      match (x:n)-[e]->(y:m), (z:n)-[e]->(y), (x)-[f]->(z)
      where x.id = z.id
      then  x.a = y.a
    })");
  ASSERT_EQ(sigma.size(), 1u);
  UnifiedPremise u = UnifyIdPremises(sigma[0].pattern(), sigma[0].X());
  ASSERT_EQ(u.pattern.NumVars(), 2u);
  ASSERT_EQ(u.pattern.NumEdges(), 2u);
  EXPECT_EQ(u.pattern.edges()[0], (Pattern::PEdge{0, Sym("e"), 1}));
  EXPECT_EQ(u.pattern.edges()[1], (Pattern::PEdge{0, Sym("f"), 0}));

  Graph g;
  NodeId a = g.AddNode("n"), b = g.AddNode("m"), c = g.AddNode("n");
  g.AddEdge(a, "e", b);
  g.AddEdge(a, "f", a);  // the self-loop the unified pattern needs
  g.AddEdge(c, "e", b);
  g.AddEdge(a, "f", c);  // an f-edge between distinct n-nodes: x ≠ z
  g.SetAttr(a, "a", Value(1));
  g.SetAttr(b, "a", Value(2));
  OverlayView o(std::make_shared<FrozenGraph>(FrozenGraph::Freeze(g)));
  ExpectEveryPathMatchesOracle(g, o, sigma, MatchSemantics::kHomomorphism,
                               "loop");
  ValidationReport r = Validate(g, sigma);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].match, (Match{a, b, a}));
}

TEST(UnifyIdPremises, VarLiteralOnMergedVariablesNeedsTheAttribute) {
  std::vector<Ged> sigma = Parse(R"(
    ged attr {
      match (x:n), (y:n)
      where x.id = y.id, x.a = y.a
      then  x.b = 1
    })");
  ASSERT_EQ(sigma.size(), 1u);
  UnifiedPremise u = UnifyIdPremises(sigma[0].pattern(), sigma[0].X());
  ASSERT_EQ(u.x.size(), 1u);  // x.a = y.a survives: it is not trivially true
  EXPECT_EQ(u.x[0].kind, LiteralKind::kVar);

  Graph g;
  NodeId with = g.AddNode("n");
  g.AddNode("n");  // no attribute a: x.a = x.a fails here
  g.SetAttr(with, "a", Value(7));
  OverlayView o(std::make_shared<FrozenGraph>(FrozenGraph::Freeze(g)));
  ExpectEveryPathMatchesOracle(g, o, sigma, MatchSemantics::kHomomorphism,
                               "attr");
  ValidationReport r = Validate(g, sigma);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].match, (Match{with, with}));
}

TEST(UnifyIdPremises, ForbiddingGedWithIdPremise) {
  std::vector<Ged> sigma = Parse(R"(
    ged forbid {
      match (x:n)-[e]->(y:_), (z:n)-[e]->(w:_)
      where x.id = z.id, y.k = 1, w.k = 2
      then  false
    })");
  ASSERT_EQ(sigma.size(), 1u);
  Graph g;
  NodeId a = g.AddNode("n"), b = g.AddNode("n");
  NodeId one = g.AddNode("t"), two = g.AddNode("t");
  g.SetAttr(one, "k", Value(1));
  g.SetAttr(two, "k", Value(2));
  g.AddEdge(a, "e", one);
  g.AddEdge(a, "e", two);
  g.AddEdge(b, "e", two);
  OverlayView o(std::make_shared<FrozenGraph>(FrozenGraph::Freeze(g)));
  ExpectEveryPathMatchesOracle(g, o, sigma, MatchSemantics::kHomomorphism,
                               "forbid");
  ValidationReport r = Validate(g, sigma);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].match, (Match{a, one, a, two}));
  EXPECT_FALSE(Chase(g, sigma).consistent);
}

TEST(UnifyIdPremises, IsomorphismSkipsMergingRules) {
  // ψ1 of the music keys links x' and y': under injective matching no match
  // can satisfy X, so the rule is neither enumerated nor counted.
  MusicInstance music = GenMusicBase(MusicParams{});
  std::vector<Ged> keys = MusicKeys();
  std::vector<Ged> psi1 = {keys[0]};
  ValidationOptions iso;
  iso.semantics = MatchSemantics::kIsomorphism;
  ValidationReport r = Validate(music.graph, psi1, iso);
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.matches_checked, 0u);
  EXPECT_TRUE(NaiveViolations(music.graph, psi1, MatchSemantics::kIsomorphism)
                  .empty());
  // ψ2 has no id premise and still fires under isomorphism.
  ValidationReport all = Validate(music.graph, keys, iso);
  EXPECT_EQ(all.violations,
            NaiveViolations(music.graph, keys, MatchSemantics::kIsomorphism));
  EXPECT_FALSE(all.satisfied);
}

// ----- the chase -------------------------------------------------------------

void ExpectChaseMatchesNaive(const Graph& g, const std::vector<Ged>& sigma,
                             const std::string& what) {
  for (unsigned seed = 0; seed <= 4; ++seed) {
    ChaseOptions opts;
    opts.order_seed = seed;
    ChaseResult res = Chase(g, sigma, nullptr, opts);
    NaiveChaseResult naive = NaiveChase(g, sigma, seed);
    std::string ctx = what + " order_seed=" + std::to_string(seed);
    ASSERT_EQ(res.consistent, naive.consistent) << ctx;
    if (!res.consistent) continue;
    EXPECT_EQ(Partition(res.eq), Partition(naive.eq)) << ctx;
    // Journal matches have the rule's arity and, mapped into the final
    // coercion, are matches of the rule's own pattern there (homomorphisms
    // survive node identification).
    for (const ChaseStep& step : res.journal) {
      const Pattern& q = sigma[step.ged_index].pattern();
      ASSERT_EQ(step.match.size(), q.NumVars()) << ctx;
      Match in_final(step.match.size());
      for (size_t i = 0; i < in_final.size(); ++i) {
        in_final[i] = res.coercion.node_map[step.match[i]];
      }
      EXPECT_TRUE(IsValidMatch(q, res.coercion.graph, in_final)) << ctx;
    }
  }
}

TEST(PremiseUnificationChase, MusicInstancesMatchTheNaiveLoop) {
  for (unsigned seed : {1u, 2u, 3u, 4u}) {
    MusicParams mp;
    mp.num_artists = 12;
    mp.dup_albums = 4;
    mp.dup_artists = 3;
    mp.seed = seed;
    MusicInstance music = GenMusicBase(mp);
    ExpectChaseMatchesNaive(music.graph, MusicKeys(),
                            "music seed=" + std::to_string(seed));
    EXPECT_EQ(Chase(music.graph, MusicKeys()).coercion.graph.NumNodes(),
              music.true_entities);
  }
}

TEST(PremiseUnificationChase, RandomSigmaMatchesTheNaiveLoop) {
  // Dense single-edge-label graphs over few labels. With attributes the chase
  // mostly ends in a conflict (consistency must agree); attribute-free with
  // one node label it merges without conflicts (partitions must agree).
  size_t merging_runs = 0;
  for (bool attribute_free : {false, true}) {
    for (GedClassKind kind : {GedClassKind::kGed, GedClassKind::kGedx}) {
      for (unsigned seed : {11u, 12u, 13u, 14u}) {
        RandomGraphParams gp;
        gp.num_nodes = 20;
        gp.avg_out_degree = 4.0;
        gp.num_node_labels = attribute_free ? 1 : 2;
        gp.num_edge_labels = 1;
        gp.num_attrs = 2;
        gp.num_values = 2;
        if (attribute_free) gp.attr_density = 0.0;
        gp.seed = seed;
        RandomGedParams rp;
        rp.kind = kind;
        rp.num_node_labels = gp.num_node_labels;
        rp.num_edge_labels = 1;
        rp.num_attrs = 2;
        rp.num_values = 2;
        rp.pattern_vars = 3;
        rp.pattern_edges = 2;
        rp.seed = seed + 50;
        std::vector<Ged> sigma = WithIdPremises(RandomGeds(4, rp));
        Graph g = RandomPropertyGraph(gp);
        std::string what = attribute_free ? "attr-free" : "attr";
        ExpectChaseMatchesNaive(g, sigma,
                                what + " seed=" + std::to_string(seed));
        ChaseResult res = Chase(g, sigma);
        if (res.consistent && res.coercion.graph.NumNodes() < g.NumNodes()) {
          ++merging_runs;
        }
      }
    }
  }
  EXPECT_GE(merging_runs, 2u);
}

TEST(PremiseUnificationChase, ProofsReplayThroughTheChecker) {
  // ψ1 + ψ3 (both with id premises) imply a derived key; its proof replays
  // the chase journal as GED6 embeddings, which the checker re-matches.
  std::vector<Ged> keys = MusicKeys();
  std::vector<Ged> derived = Parse(R"(
    ged derived {
      match (x:album)-[by]->(x':artist), (y:album)-[by]->(y':artist)
      where x.title = y.title, x'.id = y'.id
      then  x.id = y.id
    })");
  ASSERT_EQ(derived.size(), 1u);
  auto proof = GenerateImplicationProof(keys, derived[0]);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  Status check = VerifyProofOf(keys, derived[0], proof.value());
  EXPECT_TRUE(check.ok()) << check.ToString();

  // A forbidding GED whose premise links two variables: the generator must
  // find its firing match through the unified pattern.
  std::vector<Ged> sigma = Parse(R"(
    ged forbid {
      match (x:n), (y:n)
      where x.id = y.id, x.k = 1
      then  false
    })");
  std::vector<Ged> target = Parse(R"(
    ged any {
      match (x:n)
      where x.k = 1
      then  x.m = 2
    })");
  ASSERT_EQ(sigma.size(), 1u);
  ASSERT_EQ(target.size(), 1u);
  auto forbidden = GenerateImplicationProof(sigma, target[0]);
  ASSERT_TRUE(forbidden.ok()) << forbidden.status().ToString();
  check = VerifyProofOf(sigma, target[0], forbidden.value());
  EXPECT_TRUE(check.ok()) << check.ToString();
}

// ----- observability ---------------------------------------------------------

uint64_t MatchesCounted(ObsSession& session) {
  return session.Metrics()
      .Snapshot()
      .metrics[static_cast<size_t>(EngineMetric::kMatchMatches)]
      .value;
}

TEST(PremiseUnificationObs, ChaseReportsItsEnumeration) {
  // Chase hands ChaseOptions::obs to the matcher, so match.* counts the
  // enumeration of every round.
  MusicInstance music = GenMusicBase(MusicParams{});
  ObsSession session;
  ChaseOptions opts;
  opts.obs = session.Options();
  ASSERT_TRUE(Chase(music.graph, MusicKeys(), nullptr, opts).consistent);
  EXPECT_GT(MatchesCounted(session), 0u);
}

}  // namespace
}  // namespace ged
