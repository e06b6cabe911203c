// Differential harness for the shared-plan ruleset compiler (src/plan/):
// the canonicalize-and-share plan (PlanMode::kCompiled) and the one-bucket-
// per-rule plan over each rule's own pattern (PlanMode::kPerRule) must emit
// bit-identical sorted violation reports — same violations, same
// matches_checked — on every generator scenario, random GED set, delta
// stream and semantics. Plus unit coverage for pattern canonicalization and
// bucketing.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "ged/canonical.h"
#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "incr/delta.h"
#include "incr/incremental.h"
#include "plan/plan.h"
#include "reason/validation.h"
#include "validator_testing.h"

namespace ged {
namespace {

// ----- canonicalization -----------------------------------------------------

// `phi` with its pattern variables renamed by the permutation "old variable
// x becomes new variable perm[x]" — an isomorphic rule with identical
// semantics, used to exercise bucketing across variable orders.
Ged PermuteGed(const Ged& phi, const std::vector<VarId>& perm) {
  const Pattern& q = phi.pattern();
  size_t n = q.NumVars();
  std::vector<VarId> inv(n);
  for (VarId x = 0; x < n; ++x) inv[perm[x]] = x;
  Pattern p;
  for (size_t i = 0; i < n; ++i) {
    p.AddVar(q.var_name(inv[i]) + "_p", q.label(inv[i]));
  }
  for (const Pattern::PEdge& e : q.edges()) {
    p.AddEdge(perm[e.src], e.label, perm[e.dst]);
  }
  auto remap = [&](std::vector<Literal> ls) {
    for (Literal& l : ls) {
      l.x = perm[l.x];
      if (l.kind != LiteralKind::kConst) l.y = perm[l.y];
    }
    return ls;
  };
  return Ged(phi.name() + "_p", std::move(p), remap(phi.X()), remap(phi.Y()),
             phi.is_forbidding());
}

TEST(CanonicalizePattern, IsomorphicPatternsShareOneKey) {
  Pattern q;
  VarId x = q.AddVar("x", "person");
  VarId y = q.AddVar("y", "product");
  VarId z = q.AddVar("z", kWildcard);
  q.AddEdge(x, "create", y);
  q.AddEdge(z, "like", y);

  PatternCanonicalForm base = CanonicalizePattern(q);
  EXPECT_TRUE(base.exact);
  ASSERT_EQ(base.to_canonical.size(), 3u);

  // Every renaming of the variables canonicalizes to the same key.
  std::vector<VarId> perm = {0, 1, 2};
  Ged phi("t", q, {}, {}, /*y_is_false=*/true);
  do {
    Ged permuted = PermuteGed(phi, perm);
    PatternCanonicalForm form = CanonicalizePattern(permuted.pattern());
    EXPECT_EQ(form.key, base.key);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(CanonicalizePattern, NonIsomorphicPatternsSeparate) {
  Pattern chain;  // x -> y -> z
  VarId a = chain.AddVar("x", "n");
  VarId b = chain.AddVar("y", "n");
  VarId c = chain.AddVar("z", "n");
  chain.AddEdge(a, "e", b);
  chain.AddEdge(b, "e", c);

  Pattern fork;  // x -> y, x -> z: same labels and sizes, different shape
  VarId d = fork.AddVar("x", "n");
  VarId e = fork.AddVar("y", "n");
  VarId f = fork.AddVar("z", "n");
  fork.AddEdge(d, "e", e);
  fork.AddEdge(d, "e", f);

  EXPECT_NE(CanonicalizePattern(chain).key, CanonicalizePattern(fork).key);

  Pattern other;  // same shape as chain, one node label differs
  other.AddVar("x", "n");
  other.AddVar("y", "m");
  other.AddVar("z", "n");
  other.AddEdge(0, "e", 1);
  other.AddEdge(1, "e", 2);
  EXPECT_NE(CanonicalizePattern(chain).key, CanonicalizePattern(other).key);
}

TEST(RulesetPlan, BucketsIsomorphicRulesTogether) {
  // 8 rules over 3 shapes: 3 creator-style, 3 chain-style (permuted vars),
  // 2 forbidding self-shape.
  std::vector<Ged> sigma = Example1Geds();  // 4 distinct shapes
  ASSERT_EQ(sigma.size(), 4u);
  std::vector<Ged> big;
  for (int copy = 0; copy < 2; ++copy) {
    for (const Ged& phi : sigma) {
      size_t n = phi.pattern().NumVars();
      std::vector<VarId> perm(n);
      for (VarId x = 0; x < n; ++x) {
        perm[x] = copy == 0 ? x : static_cast<VarId>(n - 1 - x);
      }
      big.push_back(PermuteGed(phi, perm));
    }
  }
  RulesetPlan plan = RulesetPlan::Compile(big);
  EXPECT_EQ(plan.num_rules, 8u);
  EXPECT_EQ(plan.buckets.size(), 4u);  // each shape shared by its 2 copies
  EXPECT_EQ(plan.NumSharedRules(), 8u);
  for (const PlanBucket& bucket : plan.buckets) {
    ASSERT_EQ(bucket.rules.size(), 2u);
    EXPECT_EQ(bucket.rules[0].x_plan.size(), bucket.rules[1].x_plan.size());
  }
}

TEST(RulesetPlan, PerRuleModeKeepsEachRuleVerbatim) {
  // Example1 plus variable-permuted copies: kCompiled would share buckets,
  // kPerRule must not touch any rule.
  std::vector<Ged> sigma = Example1Geds();
  size_t base = sigma.size();
  for (size_t i = 0; i < base; ++i) {
    size_t n = sigma[i].pattern().NumVars();
    std::vector<VarId> perm(n);
    for (VarId x = 0; x < n; ++x) perm[x] = static_cast<VarId>(n - 1 - x);
    sigma.push_back(PermuteGed(sigma[i], perm));
  }
  ASSERT_LT(RulesetPlan::Compile(sigma).buckets.size(), sigma.size());

  RulesetPlan plan = RulesetPlan::Compile(sigma, PlanMode::kPerRule);
  EXPECT_EQ(plan.num_rules, sigma.size());
  ASSERT_EQ(plan.buckets.size(), plan.num_rules);
  EXPECT_EQ(plan.NumSharedRules(), 0u);
  for (size_t i = 0; i < sigma.size(); ++i) {
    const PlanBucket& bucket = plan.buckets[i];
    const Pattern& q = sigma[i].pattern();
    ASSERT_EQ(bucket.rules.size(), 1u) << "bucket " << i;
    ASSERT_EQ(bucket.pattern.NumVars(), q.NumVars()) << "bucket " << i;
    for (VarId x = 0; x < q.NumVars(); ++x) {
      EXPECT_EQ(bucket.pattern.label(x), q.label(x)) << "bucket " << i;
      EXPECT_EQ(bucket.pattern.var_name(x), q.var_name(x)) << "bucket " << i;
    }
    EXPECT_EQ(bucket.pattern.edges(), q.edges()) << "bucket " << i;
    const PlanRule& rule = bucket.rules[0];
    EXPECT_EQ(rule.ged_index, i);
    EXPECT_EQ(rule.name, sigma[i].name());
    std::vector<VarId> identity(q.NumVars());
    for (VarId x = 0; x < q.NumVars(); ++x) identity[x] = x;
    EXPECT_EQ(rule.to_plan, identity) << "bucket " << i;
    EXPECT_EQ(rule.x_plan, sigma[i].X()) << "bucket " << i;
    EXPECT_EQ(rule.y_plan, sigma[i].Y()) << "bucket " << i;
    EXPECT_EQ(rule.forbidding, sigma[i].is_forbidding());
  }
}

TEST(RulesetPlan, EmptySigmaAndEmptyPattern) {
  RulesetPlan empty = RulesetPlan::Compile({});
  EXPECT_TRUE(empty.buckets.empty());
  Graph g;
  g.AddNode("n");
  ValidationReport r = ValidateWithPlan(g, empty);
  EXPECT_TRUE(r.satisfied);

  // A variable-free pattern has exactly one (empty) match.
  std::vector<Ged> sigma;
  sigma.emplace_back("forbid_nothing", Pattern{}, std::vector<Literal>{},
                     std::vector<Literal>{}, /*y_is_false=*/true);
  ValidationReport forbidden = Validate(g, sigma);
  ASSERT_EQ(forbidden.violations.size(), 1u);
  EXPECT_TRUE(forbidden.violations[0].match.empty());
}

// ----- differential: compiled vs per-rule ----------------------------------

void ExpectPathsAgree(const Graph& g, const std::vector<Ged>& sigma,
                      ValidationOptions opts) {
  opts.policy.plan = PlanMode::kPerRule;
  ValidationReport per_rule = Validate(g, sigma, opts);
  opts.policy.plan = PlanMode::kCompiled;
  ValidationReport compiled = Validate(g, sigma, opts);
  EXPECT_EQ(compiled.satisfied, per_rule.satisfied);
  EXPECT_EQ(compiled.violations, per_rule.violations);
  EXPECT_EQ(compiled.matches_checked, per_rule.matches_checked);
}

void ExpectPathsAgreeAllModes(const Graph& g, const std::vector<Ged>& sigma) {
  for (MatchSemantics sem :
       {MatchSemantics::kHomomorphism, MatchSemantics::kIsomorphism}) {
    for (unsigned threads : {1u, 4u}) {
      ValidationOptions opts;
      opts.semantics = sem;
      opts.num_threads = threads;
      ExpectPathsAgree(g, sigma, opts);
    }
  }
}

TEST(PlanDifferential, KnowledgeBaseScenario) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  ExpectPathsAgreeAllModes(kb.graph, Example1Geds());
}

TEST(PlanDifferential, SocialNetworkScenario) {
  SocialParams sp;
  SocialInstance social = GenSocialNetwork(sp);
  ExpectPathsAgreeAllModes(social.graph,
                           {SpamGed(sp.k, Value("free money"))});
}

TEST(PlanDifferential, MusicBaseScenario) {
  MusicInstance music = GenMusicBase(MusicParams{});
  ExpectPathsAgreeAllModes(music.graph, MusicKeys());
}

TEST(PlanDifferential, RandomGedSetsAcrossClasses) {
  RandomGraphParams gp;
  gp.num_nodes = 60;
  for (GedClassKind kind : {GedClassKind::kGfdx, GedClassKind::kGfd,
                            GedClassKind::kGedx, GedClassKind::kGed,
                            GedClassKind::kGkey}) {
    gp.seed = static_cast<unsigned>(31 + static_cast<int>(kind));
    Graph g = RandomPropertyGraph(gp);
    RandomGedParams rp;
    rp.kind = kind;
    rp.pattern_vars = 3;
    rp.pattern_edges = 2;
    rp.seed = gp.seed + 1;
    std::vector<Ged> sigma = RandomGeds(5, rp);
    // Append variable-permuted copies so buckets actually merge.
    size_t base = sigma.size();
    for (size_t i = 0; i < base; ++i) {
      size_t n = sigma[i].pattern().NumVars();
      std::vector<VarId> perm(n);
      for (VarId x = 0; x < n; ++x) perm[x] = static_cast<VarId>(n - 1 - x);
      sigma.push_back(PermuteGed(sigma[i], perm));
    }
    EXPECT_GT(RulesetPlan::Compile(sigma).NumSharedRules(), 0u);
    ExpectPathsAgreeAllModes(g, sigma);
  }
}

TEST(PlanDifferential, CappedReportsAgree) {
  KbParams params;
  params.wrong_creator = 6;
  params.double_capital = 3;
  KbInstance kb = GenKnowledgeBase(params);
  for (unsigned threads : {1u, 4u}) {
    ValidationOptions opts;
    opts.max_violations_per_ged = 2;
    opts.num_threads = threads;
    ExpectPathsAgree(kb.graph, Example1Geds(), opts);
  }
}

TEST(PlanDifferential, ValidateTouchingAgrees) {
  RandomGraphParams gp;
  gp.num_nodes = 70;
  gp.seed = 41;
  Graph g = RandomPropertyGraph(gp);
  RandomGedParams rp;
  rp.pattern_vars = 3;
  rp.pattern_edges = 2;
  rp.seed = 42;
  std::vector<Ged> sigma = RandomGeds(6, rp);
  RulesetPlan per_rule = RulesetPlan::Compile(sigma, PlanMode::kPerRule);
  RulesetPlan shared = RulesetPlan::Compile(sigma);
  std::mt19937 rng(43);
  for (int round = 0; round < 6; ++round) {
    std::vector<NodeId> touched;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (rng() % 4 == 0) touched.push_back(v);
    }
    for (unsigned threads : {1u, 4u}) {
      ValidationOptions opts;
      opts.num_threads = threads;
      ValidationReport expected =
          ValidateTouchingWithPlan(g, per_rule, touched, opts);
      ValidationReport compiled =
          ValidateTouchingWithPlan(g, shared, touched, opts);
      EXPECT_EQ(compiled.violations, expected.violations);
      EXPECT_EQ(compiled.matches_checked, expected.matches_checked);
    }
  }
}

TEST(PlanDifferential, SeededByEdgesAgrees) {
  RandomGraphParams gp;
  gp.num_nodes = 50;
  gp.seed = 51;
  Graph g = RandomPropertyGraph(gp);
  RandomGedParams rp;
  rp.pattern_vars = 3;
  rp.pattern_edges = 3;
  rp.seed = 52;
  std::vector<Ged> sigma = RandomGeds(6, rp);
  // Seeds: a sample of existing edges (what a cross-edge delta reports).
  std::vector<EdgeTriple> seeds;
  for (NodeId v = 0; v < g.NumNodes(); v += 5) {
    for (const Edge& e : g.out(v)) {
      seeds.push_back({v, e.label, e.other});
      break;
    }
  }
  ASSERT_FALSE(seeds.empty());
  ValidationOptions opts;
  uint64_t checked_per_rule = 0, checked_compiled = 0;
  std::vector<Violation> per_rule = FindViolationsSeededByEdgesWithPlan(
      g, RulesetPlan::Compile(sigma, PlanMode::kPerRule), seeds, opts,
      &checked_per_rule);
  std::vector<Violation> compiled = FindViolationsSeededByEdgesWithPlan(
      g, RulesetPlan::Compile(sigma), seeds, opts, &checked_compiled);
  EXPECT_EQ(compiled, per_rule);
  EXPECT_EQ(checked_compiled, checked_per_rule);
}

// ----- differential: random delta streams (incr_test stream machinery) -----

// Appends a random append-only batch shaped like the generator's universe.
GraphDelta RandomDelta(const Graph& g, std::mt19937* rng, size_t num_ops,
                       const RandomGraphParams& gp) {
  GraphDelta d(g);
  auto pick_node = [&](size_t extent) {
    return static_cast<NodeId>((*rng)() % extent);
  };
  size_t extent = g.NumNodes();
  for (size_t i = 0; i < num_ops; ++i) {
    switch ((*rng)() % 10) {
      case 0:
      case 1:
      case 2: {  // new node, sometimes with an attribute
        NodeId v = d.AddNode(GenNodeLabel((*rng)() % gp.num_node_labels));
        extent = v + 1;
        if ((*rng)() % 2 == 0) {
          d.SetAttr(v, GenAttr((*rng)() % gp.num_attrs),
                    Value(static_cast<int64_t>((*rng)() % gp.num_values)));
        }
        break;
      }
      case 3:
      case 4:
      case 5:
      case 6: {  // new edge among base + pending nodes
        d.AddEdge(pick_node(extent),
                  GenEdgeLabel((*rng)() % gp.num_edge_labels),
                  pick_node(extent));
        break;
      }
      default: {  // attribute write (sometimes a no-op rewrite)
        d.SetAttr(pick_node(extent), GenAttr((*rng)() % gp.num_attrs),
                  Value(static_cast<int64_t>((*rng)() % gp.num_values)));
        break;
      }
    }
  }
  return d;
}

// The compiled incremental validator must track the *per-rule* from-scratch
// oracle across a random delta stream — the end-to-end differential: every
// layer (full validate, touching re-scan, edge-seeded re-scan) crosses the
// compiled/per-rule boundary here.
void RunDifferentialStream(MatchSemantics sem, unsigned threads,
                           unsigned seed) {
  RandomGraphParams gp;
  gp.num_nodes = 50;
  gp.avg_out_degree = 3.0;
  gp.seed = seed;
  RandomGedParams rp;
  rp.kind = GedClassKind::kGed;
  rp.pattern_vars = 3;
  rp.pattern_edges = 2;
  rp.seed = seed + 1;
  std::vector<Ged> sigma = RandomGeds(4, rp);
  ValidationOptions opts;
  opts.semantics = sem;
  opts.num_threads = threads;
  opts.policy.plan = PlanMode::kCompiled;
  auto v = CreateValidator(RandomPropertyGraph(gp), sigma, opts);

  ValidationOptions per_rule_opts = opts;
  per_rule_opts.policy.plan = PlanMode::kPerRule;
  auto expect_matches_per_rule = [&]() {
    ValidationReport oracle = Validate(v->graph(), v->sigma(), per_rule_opts);
    EXPECT_EQ(v->report().satisfied, oracle.satisfied);
    EXPECT_EQ(v->report().violations, oracle.violations);
  };
  expect_matches_per_rule();

  std::mt19937 rng(seed + 2);
  for (int commit = 0; commit < 8; ++commit) {
    GraphDelta d = RandomDelta(v->graph(), &rng, 12, gp);
    auto applied = v->Commit(d);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    expect_matches_per_rule();
  }
}

TEST(PlanDifferential, DeltaStreamHomomorphismSerial) {
  RunDifferentialStream(MatchSemantics::kHomomorphism, 1, 61);
}

TEST(PlanDifferential, DeltaStreamHomomorphismParallel) {
  RunDifferentialStream(MatchSemantics::kHomomorphism, 4, 62);
}

TEST(PlanDifferential, DeltaStreamIsomorphismSerial) {
  RunDifferentialStream(MatchSemantics::kIsomorphism, 1, 63);
}

TEST(PlanDifferential, DeltaStreamIsomorphismParallel) {
  RunDifferentialStream(MatchSemantics::kIsomorphism, 4, 64);
}

}  // namespace
}  // namespace ged
