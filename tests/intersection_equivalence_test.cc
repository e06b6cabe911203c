// Differential harness for the worst-case-optimal candidate generator:
// k-way leapfrog intersection (MatchOptions::use_intersection, the default
// on CSR snapshots) must be *observationally identical* to the legacy
// pick-smallest-list path — same match sets, same violation reports, same
// matches_checked — across both read backends, both semantics, compiled and
// per-rule plans, serial and parallel. Plus unit tests pinning the
// gallop/leapfrog kernel itself on adversarial inputs: empty ranges,
// disjoint ranges, duplicates across labels, self-loops.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "graph/frozen.h"
#include "match/leapfrog.h"
#include "match/kernels/kernel_impl.h"
#include "match/kernels/registry.h"
#include "match/matcher.h"
#include "plan/plan.h"
#include "reason/validation.h"

namespace ged {
namespace {

// ----- leapfrog kernel unit tests -------------------------------------------

std::vector<NodeId> Intersect(std::vector<std::vector<NodeId>> inputs) {
  std::vector<std::span<const NodeId>> lists;
  for (const auto& in : inputs) lists.emplace_back(in.data(), in.size());
  std::vector<NodeId> out;
  bool ran_dry = LeapfrogIntersect(
      std::span<std::span<const NodeId>>(lists.data(), lists.size()),
      [&](NodeId v) {
        out.push_back(v);
        return true;
      });
  EXPECT_TRUE(ran_dry);
  return out;
}

TEST(LeapfrogKernel, GallopLowerBound) {
  std::vector<NodeId> v = {2, 3, 5, 8, 13, 21, 34};
  const NodeId* base = v.data();
  const NodeId* end = v.data() + v.size();
  EXPECT_EQ(GallopLowerBound(base, end, 0), base);
  EXPECT_EQ(GallopLowerBound(base, end, 2), base);
  EXPECT_EQ(GallopLowerBound(base, end, 4), base + 2);
  EXPECT_EQ(GallopLowerBound(base, end, 13), base + 4);
  EXPECT_EQ(GallopLowerBound(base, end, 34), base + 6);
  EXPECT_EQ(GallopLowerBound(base, end, 35), end);
  EXPECT_EQ(GallopLowerBound(base, base, 1), base);  // empty range
}

TEST(LeapfrogKernel, EmptyAndSingleLists) {
  EXPECT_TRUE(Intersect({}).empty());                    // k = 0
  EXPECT_EQ(Intersect({{1, 4, 7}}), (std::vector<NodeId>{1, 4, 7}));
  EXPECT_TRUE(Intersect({{}}).empty());                  // one empty list
  EXPECT_TRUE(Intersect({{1, 2, 3}, {}}).empty());       // any empty kills it
  EXPECT_TRUE(Intersect({{}, {}, {}}).empty());
}

TEST(LeapfrogKernel, DisjointRanges) {
  EXPECT_TRUE(Intersect({{1, 3, 5}, {2, 4, 6}}).empty());
  EXPECT_TRUE(Intersect({{1, 2, 3}, {10, 20}}).empty());
  EXPECT_TRUE(Intersect({{10, 20}, {1, 2, 3}}).empty());
  EXPECT_TRUE(Intersect({{1, 9}, {2, 8}, {3, 7}}).empty());
}

TEST(LeapfrogKernel, OverlappingRanges) {
  EXPECT_EQ(Intersect({{1, 3, 5, 9}, {3, 4, 9, 11}}),
            (std::vector<NodeId>{3, 9}));
  EXPECT_EQ(Intersect({{0, 2, 4, 6, 8}, {2, 6, 10}, {1, 2, 3, 6, 7}}),
            (std::vector<NodeId>{2, 6}));
  // Identical lists (duplicates across labels: the same neighbor reachable
  // through several labeled ranges hands the kernel the same span twice).
  EXPECT_EQ(Intersect({{5, 6, 7}, {5, 6, 7}, {5, 6, 7}}),
            (std::vector<NodeId>{5, 6, 7}));
  // Highly skewed sizes exercise the gallop.
  std::vector<NodeId> big;
  for (NodeId i = 0; i < 1000; ++i) big.push_back(i * 3);
  EXPECT_EQ(Intersect({big, {6, 7, 2400, 2998}}),
            (std::vector<NodeId>{6, 2400}));
  EXPECT_EQ(Intersect({{6, 7, 2400, 2998}, big}),
            (std::vector<NodeId>{6, 2400}));
}

TEST(LeapfrogKernel, EarlyStop) {
  std::vector<NodeId> a = {1, 2, 3, 4, 5};
  std::vector<std::span<const NodeId>> lists = {{a.data(), a.size()},
                                                {a.data(), a.size()}};
  std::vector<NodeId> out;
  bool ran_dry = LeapfrogIntersect(
      std::span<std::span<const NodeId>>(lists.data(), lists.size()),
      [&](NodeId v) {
        out.push_back(v);
        return out.size() < 2;
      });
  EXPECT_FALSE(ran_dry);
  EXPECT_EQ(out, (std::vector<NodeId>{1, 2}));
}

// ----- matcher differential: intersection ≡ legacy --------------------------

struct SemanticsCase {
  MatchSemantics semantics;
  const char* name;
};

const SemanticsCase kSemantics[] = {
    {MatchSemantics::kHomomorphism, "homomorphism"},
    {MatchSemantics::kIsomorphism, "isomorphism"},
};

std::vector<Match> SortedMatches(const Pattern& q, const FrozenGraph& f,
                                 MatchOptions opts, bool intersection) {
  opts.use_intersection = intersection;
  std::vector<Match> ms = AllMatches(q, f, opts);
  std::sort(ms.begin(), ms.end());
  return ms;
}

// Intersection and legacy candidate generation must agree on the match set
// against the frozen backend, and both must agree with the mutable graph
// (whose scans are always legacy-shaped).
void ExpectSameMatches(const Pattern& q, const Graph& g,
                       const std::string& what,
                       const MatchOptions& base = {}) {
  FrozenGraph f = FrozenGraph::Freeze(g);
  for (const SemanticsCase& sem : kSemantics) {
    MatchOptions opts = base;
    opts.semantics = sem.semantics;
    std::vector<Match> with = SortedMatches(q, f, opts, true);
    std::vector<Match> without = SortedMatches(q, f, opts, false);
    EXPECT_EQ(with, without) << what << " [" << sem.name << "]";
    std::vector<Match> mutable_ms = AllMatches(q, g, opts);
    std::sort(mutable_ms.begin(), mutable_ms.end());
    EXPECT_EQ(with, mutable_ms) << what << " vs mutable [" << sem.name << "]";
  }
}

TEST(IntersectionEquivalence, DenseCommunityCliques) {
  DenseParams params;
  params.num_members = 96;
  params.community_size = 32;
  params.follows_per_member = 10;
  DenseInstance inst = GenDenseCommunity(params);
  for (const Ged& phi : DenseCliqueGeds()) {
    ExpectSameMatches(phi.pattern(), inst.graph, "dense " + phi.name());
  }
}

TEST(IntersectionEquivalence, ScenarioPatterns) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  for (const Ged& phi : Example1Geds()) {
    ExpectSameMatches(phi.pattern(), kb.graph, "KB " + phi.name());
  }
  SocialInstance net = GenSocialNetwork(SocialParams{});
  ExpectSameMatches(SpamGed(2, Value("peculiar")).pattern(), net.graph, "Q5");
  MusicInstance music = GenMusicBase(MusicParams{});
  for (const Ged& psi : MusicKeys()) {
    ExpectSameMatches(psi.pattern(), music.graph, "music " + psi.name());
  }
}

TEST(IntersectionEquivalence, RandomPatternSweep) {
  for (unsigned seed = 1; seed <= 6; ++seed) {
    RandomGraphParams gp;
    gp.num_nodes = 100;
    gp.avg_out_degree = 5.0;
    gp.num_node_labels = 3;
    gp.num_edge_labels = 2;
    gp.seed = seed;
    Graph g = RandomPropertyGraph(gp);
    RandomGedParams rp;
    rp.pattern_vars = 4;
    rp.pattern_edges = 5;
    rp.num_node_labels = 3;
    rp.num_edge_labels = 2;
    rp.wildcard_rate = 0.3;  // mixes intersectable and wildcard-only edges
    rp.seed = seed;
    for (const Ged& phi : RandomGeds(4, rp)) {
      ExpectSameMatches(phi.pattern(), g,
                        "random seed " + std::to_string(seed));
    }
  }
}

TEST(IntersectionEquivalence, SelfLoopsAndParallelConstraints) {
  Graph g;
  // Two labels between the same endpoints, self-loops, and a dense-ish core
  // — the shapes whose ranges collide or cannot be intersected.
  for (int i = 0; i < 12; ++i) g.AddNode("n");
  for (NodeId i = 0; i < 12; ++i) {
    g.AddEdge(i, "a", (i + 1) % 12);
    g.AddEdge(i, "b", (i + 1) % 12);
    g.AddEdge(i, "a", (i + 5) % 12);
    if (i % 3 == 0) g.AddEdge(i, "a", i);  // self-loop
    if (i % 4 == 0) g.AddEdge(i, "b", i);
  }
  {
    Pattern q;  // parallel constraints: both labels between x and y
    VarId x = q.AddVar("x", "n");
    VarId y = q.AddVar("y", "n");
    q.AddEdge(x, "a", y);
    q.AddEdge(x, "b", y);
    ExpectSameMatches(q, g, "parallel a+b edge");
  }
  {
    Pattern q;  // self-loop variable with an intersectable neighbor
    VarId x = q.AddVar("x", "n");
    VarId y = q.AddVar("y", "n");
    q.AddEdge(x, "a", x);
    q.AddEdge(x, "a", y);
    q.AddEdge(y, "b", y);
    ExpectSameMatches(q, g, "self-loops");
  }
  {
    Pattern q;  // wildcard edge label: not intersectable, residual-checked
    VarId x = q.AddVar("x", "n");
    VarId y = q.AddVar("y", "n");
    VarId z = q.AddVar("z", kWildcard);
    q.AddEdge(x, kWildcard, y);
    q.AddEdge(x, "a", z);
    q.AddEdge(y, "a", z);
    ExpectSameMatches(q, g, "wildcard mix");
  }
}

TEST(IntersectionEquivalence, RestrictionsAndPins) {
  DenseParams params;
  params.num_members = 64;
  params.community_size = 32;
  params.follows_per_member = 8;
  DenseInstance inst = GenDenseCommunity(params);
  Pattern q = DenseCliqueGeds()[0].pattern();  // triangle
  MatchOptions base;
  base.restricted = {{0, {1, 3, 5, 7, 9, 11, 30, 31, 32, 60}},
                     {2, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}};
  ExpectSameMatches(q, inst.graph, "restricted triangle", base);
  MatchOptions pinned;
  pinned.pinned = {{1, 4}};
  ExpectSameMatches(q, inst.graph, "pinned triangle", pinned);
}

TEST(IntersectionEquivalence, TouchingEnumerationAgrees) {
  DenseParams params;
  params.num_members = 64;
  params.community_size = 32;
  params.follows_per_member = 8;
  DenseInstance inst = GenDenseCommunity(params);
  FrozenGraph f = FrozenGraph::Freeze(inst.graph);
  Pattern q = DenseCliqueGeds()[0].pattern();
  std::vector<NodeId> touched = {2, 5, 17, 33, 40, 41, 63};
  for (const SemanticsCase& sem : kSemantics) {
    std::vector<Match> with, without;
    for (bool intersection : {true, false}) {
      MatchOptions opts;
      opts.semantics = sem.semantics;
      opts.use_intersection = intersection;
      auto& out = intersection ? with : without;
      EnumerateMatchesTouching(q, f, touched, opts, [&](const Match& h) {
        out.push_back(h);
        return true;
      });
      std::sort(out.begin(), out.end());
    }
    EXPECT_EQ(with, without) << sem.name;
  }
}

// ----- validation differential: full pipeline -------------------------------

// Violation reports and matches_checked through every (backend,
// evaluation-path, thread-count) corner must not depend on the candidate
// generator.
void ExpectSameReports(const Graph& g, const std::vector<Ged>& sigma,
                       const std::string& what) {
  FrozenGraph f = FrozenGraph::Freeze(g);
  for (const SemanticsCase& sem : kSemantics) {
    for (bool compiled : {true, false}) {
      for (unsigned threads : {1u, 4u}) {
        ValidationOptions opts;
        opts.semantics = sem.semantics;
        opts.policy.plan = compiled ? PlanMode::kCompiled : PlanMode::kPerRule;
        opts.num_threads = threads;
        opts.policy.snapshot = SnapshotMode::kNever;
        opts.policy.join = JoinStrategy::kAuto;
        ValidationReport with = Validate(f, sigma, opts);
        opts.policy.join = JoinStrategy::kPickSmallest;
        ValidationReport without = Validate(f, sigma, opts);
        ValidationReport mutable_report = Validate(g, sigma, opts);
        std::string ctx = what + " [" + sem.name +
                          (compiled ? ", compiled" : ", per-rule") +
                          ", threads=" + std::to_string(threads) + "]";
        EXPECT_EQ(with.satisfied, without.satisfied) << ctx;
        EXPECT_EQ(with.violations, without.violations) << ctx;
        EXPECT_EQ(with.matches_checked, without.matches_checked) << ctx;
        EXPECT_EQ(with.violations, mutable_report.violations) << ctx;
        EXPECT_EQ(with.matches_checked, mutable_report.matches_checked)
            << ctx;
      }
    }
  }
}

TEST(IntersectionEquivalence, DenseValidationReports) {
  DenseParams params;
  params.num_members = 64;
  params.community_size = 32;
  params.follows_per_member = 8;
  params.off_tier = 4;
  DenseInstance inst = GenDenseCommunity(params);
  ExpectSameReports(inst.graph, DenseCliqueGeds(), "dense community");
}

TEST(IntersectionEquivalence, RandomRulesetReports) {
  for (unsigned seed = 3; seed <= 5; ++seed) {
    RandomGraphParams gp;
    gp.num_nodes = 80;
    gp.avg_out_degree = 4.0;
    gp.num_node_labels = 3;
    gp.num_edge_labels = 2;
    gp.seed = seed;
    Graph g = RandomPropertyGraph(gp);
    RandomGedParams rp;
    rp.pattern_vars = 3;
    rp.pattern_edges = 3;
    rp.num_node_labels = 3;
    rp.num_edge_labels = 2;
    rp.seed = seed;
    ExpectSameReports(g, RandomGeds(4, rp),
                      "random seed " + std::to_string(seed));
  }
}


// ----- kernel registry: dispatch --------------------------------------------

TEST(KernelRegistry, ScalarAlwaysAvailable) {
  EXPECT_TRUE(KernelAvailable(KernelBackend::kScalar));
  ASSERT_NE(GetKernel(KernelBackend::kScalar), nullptr);
  EXPECT_EQ(GetKernel(KernelBackend::kScalar)->backend,
            KernelBackend::kScalar);
  std::vector<KernelBackend> avail = AvailableKernelBackends();
  EXPECT_FALSE(avail.empty());
  EXPECT_NE(std::find(avail.begin(), avail.end(), KernelBackend::kScalar),
            avail.end());
}

TEST(KernelRegistry, DetectionPicksAnAvailableBackend) {
  KernelBackend detected = DetectKernelBackend();
  EXPECT_TRUE(KernelAvailable(detected));
  // Detection-best ordering: the detected backend leads the list.
  EXPECT_EQ(AvailableKernelBackends().front(), detected);
}

TEST(KernelRegistry, ResolutionNeverFails) {
  // Every request — including backends this binary/host cannot serve and
  // kAuto — resolves to a usable kernel; available explicit requests are
  // honored exactly.
  for (KernelBackend b :
       {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kAvx2,
        KernelBackend::kNeon}) {
    const IntersectionKernel& k = ResolveKernel(b);
    EXPECT_TRUE(KernelAvailable(k.backend)) << KernelBackendName(b);
    if (KernelOverride() != KernelBackend::kAuto) {
      // A process-wide override (e.g. CI's GEDLIB_KERNEL_BACKEND leg)
      // beats every request by design.
      EXPECT_EQ(k.backend, KernelOverride()) << KernelBackendName(b);
    } else if (b != KernelBackend::kAuto && KernelAvailable(b)) {
      EXPECT_EQ(k.backend, b) << KernelBackendName(b);
    }
  }
}

TEST(KernelRegistry, ScopedOverrideForcesEachAvailableBackend) {
  // The single-binary dispatch requirement: the same process can be forced
  // onto every backend it carries, and the override beats any request.
  for (KernelBackend b : AvailableKernelBackends()) {
    ScopedKernelOverride forced(b);
    EXPECT_EQ(ResolveKernel().backend, b);
    EXPECT_EQ(ResolveKernel(KernelBackend::kScalar).backend, b);
    EXPECT_EQ(ResolveKernel(DetectKernelBackend()).backend, b);
  }
}

TEST(KernelRegistry, UnavailableOverrideIsIgnored) {
  KernelBackend missing = KernelBackend::kAuto;
  for (KernelBackend b : {KernelBackend::kAvx2, KernelBackend::kNeon}) {
    if (!KernelAvailable(b)) missing = b;
  }
  if (missing == KernelBackend::kAuto) {
    GTEST_SKIP() << "every backend is available in this binary on this host";
  }
  KernelBackend before = KernelOverride();
  EXPECT_FALSE(SetKernelOverride(missing));
  EXPECT_EQ(KernelOverride(), before);
}

TEST(KernelRegistry, DispatchHonorsEnvOverride) {
  // CI's kernel-matrix legs run this suite under
  // GEDLIB_KERNEL_BACKEND=<backend>; assert the seeded override actually
  // took. Without the variable the override must be clear.
  const char* env = std::getenv("GEDLIB_KERNEL_BACKEND");
  KernelBackend parsed = KernelBackend::kAuto;
  if (env == nullptr || !ParseKernelBackend(env, &parsed) ||
      !KernelAvailable(parsed)) {
    EXPECT_EQ(KernelOverride(), KernelBackend::kAuto);
    return;
  }
  EXPECT_EQ(KernelOverride(), parsed);
  EXPECT_EQ(ResolveKernel().backend, parsed);
}

// ----- kernel differential: scalar ≡ SIMD on adversarial inputs -------------

std::vector<NodeId> Kernel2(const IntersectionKernel& k,
                            std::span<const NodeId> a,
                            std::span<const NodeId> b,
                            uint64_t* seeks = nullptr) {
  std::vector<NodeId> out;
  bool ran_dry = k.intersect2(
      a, b,
      [](void* ctx, NodeId v) {
        static_cast<std::vector<NodeId>*>(ctx)->push_back(v);
        return true;
      },
      &out, seeks);
  EXPECT_TRUE(ran_dry);
  return out;
}

std::vector<NodeId> KernelK(const IntersectionKernel& k,
                            std::vector<std::vector<NodeId>> inputs) {
  std::vector<std::span<const NodeId>> lists;
  lists.reserve(inputs.size());
  for (const auto& in : inputs) lists.emplace_back(in.data(), in.size());
  std::vector<NodeId> out;
  bool ran_dry = k.intersect_k(
      std::span<std::span<const NodeId>>(lists.data(), lists.size()),
      [](void* ctx, NodeId v) {
        static_cast<std::vector<NodeId>*>(ctx)->push_back(v);
        return true;
      },
      &out, nullptr);
  EXPECT_TRUE(ran_dry);
  return out;
}

std::vector<NodeId> Oracle2(const std::vector<NodeId>& a,
                            const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<NodeId> RandomSortedUnique(std::mt19937& rng, size_t max_size,
                                       NodeId max_value) {
  std::uniform_int_distribution<size_t> size_dist(0, max_size);
  std::uniform_int_distribution<NodeId> val_dist(0, max_value);
  std::vector<NodeId> v(size_dist(rng));
  for (NodeId& x : v) x = val_dist(rng);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

TEST(KernelDifferential, AdversarialPairsMatchOracleOnEveryBackend) {
  std::vector<NodeId> evens, odds, dense_block, sparse;
  for (NodeId i = 0; i < 600; ++i) {
    evens.push_back(2 * i);
    odds.push_back(2 * i + 1);
    dense_block.push_back(i);  // ≥ kBitmapMinSize on both sides → bitmap path
  }
  for (NodeId i = 0; i < 500; ++i) sparse.push_back(i * 97);
  std::vector<NodeId> one = {299};
  std::vector<NodeId> million;  // the 1-vs-10⁶ skew: pure gallop territory
  million.reserve(1000000);
  for (NodeId i = 0; i < 1000000; ++i) million.push_back(i);
  std::vector<NodeId> high = {0xFFFFFF00u, 0xFFFFFFFEu, 0xFFFFFFFFu};
  const std::vector<std::pair<std::vector<NodeId>, std::vector<NodeId>>>
      cases = {
          {evens, odds},                   // fully disjoint, interleaved
          {evens, evens},                  // fully equal, bitmap-sized
          {dense_block, evens},            // half-overlap, both dense
          {dense_block, sparse},           // dense vs strided
          {one, million}, {million, one},  // extreme skew, both directions
          {{}, evens}, {evens, {}}, {{}, {}},  // empties
          {high, high}, {high, evens},     // top-of-NodeId-range blocks
      };
  for (KernelBackend b : AvailableKernelBackends()) {
    const IntersectionKernel& k = *GetKernel(b);
    for (size_t i = 0; i < cases.size(); ++i) {
      EXPECT_EQ(Kernel2(k, cases[i].first, cases[i].second),
                Oracle2(cases[i].first, cases[i].second))
          << k.name << " case " << i;
    }
  }
}

TEST(KernelDifferential, RandomizedIntersect2Fuzz) {
  // Size/density sweep chosen to cross every strategy boundary: the 32×
  // gallop skew ratio, the 256-element bitmap floor, and the 8-lane (4-lane
  // NEON) vector merge with its scalar tail.
  std::mt19937 rng(20170604);
  for (int round = 0; round < 300; ++round) {
    NodeId max_value = (round % 3 == 0) ? 700 : (round % 3 == 1 ? 5000 : 80);
    size_t max_a = (round % 5 == 0) ? 4 : 600;  // occasional extreme skew
    std::vector<NodeId> a = RandomSortedUnique(rng, max_a, max_value);
    std::vector<NodeId> b = RandomSortedUnique(rng, 600, max_value);
    std::vector<NodeId> want = Oracle2(a, b);
    for (KernelBackend backend : AvailableKernelBackends()) {
      EXPECT_EQ(Kernel2(*GetKernel(backend), a, b), want)
          << GetKernel(backend)->name << " round " << round
          << " |a|=" << a.size() << " |b|=" << b.size();
    }
  }
}

TEST(KernelDifferential, RandomizedIntersectKFuzz) {
  std::mt19937 rng(981);
  for (int round = 0; round < 150; ++round) {
    size_t k = 2 + rng() % 4;  // 2..5 lists
    std::vector<std::vector<NodeId>> lists;
    for (size_t i = 0; i < k; ++i) {
      lists.push_back(RandomSortedUnique(rng, 400, 300));
    }
    std::vector<NodeId> want = lists[0];
    for (size_t i = 1; i < k; ++i) want = Oracle2(want, lists[i]);
    for (KernelBackend backend : AvailableKernelBackends()) {
      EXPECT_EQ(KernelK(*GetKernel(backend), lists), want)
          << GetKernel(backend)->name << " round " << round << " k=" << k;
    }
  }
}

TEST(KernelDifferential, EarlyTerminationStopsEveryBackend) {
  // The emit contract: candidates arrive in increasing order, a false
  // return stops the kernel mid-flight, and the kernel reports the stop by
  // returning false — on the pair path and the k-way filter path alike.
  std::vector<NodeId> a, b;
  for (NodeId i = 0; i < 512; ++i) a.push_back(i);
  for (NodeId i = 0; i < 512; i += 2) b.push_back(i);
  struct Ctx {
    std::vector<NodeId> out;
    size_t limit;
  };
  for (KernelBackend backend : AvailableKernelBackends()) {
    const IntersectionKernel& k = *GetKernel(backend);
    for (size_t limit : {size_t{1}, size_t{3}, size_t{17}, size_t{100}}) {
      Ctx ctx{{}, limit};
      bool ran_dry = k.intersect2(
          a, b,
          [](void* c, NodeId v) {
            auto* x = static_cast<Ctx*>(c);
            x->out.push_back(v);
            return x->out.size() < x->limit;
          },
          &ctx, nullptr);
      EXPECT_FALSE(ran_dry) << k.name << " limit " << limit;
      std::vector<NodeId> want = Oracle2(a, b);
      want.resize(limit);
      EXPECT_EQ(ctx.out, want) << k.name << " limit " << limit;

      std::vector<std::span<const NodeId>> lists = {
          {a.data(), a.size()}, {b.data(), b.size()}, {a.data(), a.size()}};
      Ctx kctx{{}, limit};
      bool k_ran_dry = k.intersect_k(
          std::span<std::span<const NodeId>>(lists.data(), lists.size()),
          [](void* c, NodeId v) {
            auto* x = static_cast<Ctx*>(c);
            x->out.push_back(v);
            return x->out.size() < x->limit;
          },
          &kctx, nullptr);
      EXPECT_FALSE(k_ran_dry) << k.name << " k-way limit " << limit;
      EXPECT_EQ(kctx.out, want) << k.name << " k-way limit " << limit;
    }
  }
}

TEST(KernelImpl, BlockBitmapMatchesOracleAcrossBlockBoundaries) {
  // Direct coverage for the shared block-bitmap path: runs that straddle
  // 64-value block boundaries, misaligned stretches that force the gallop
  // skip, and a whole empty block in the middle.
  std::vector<NodeId> a, b;
  for (NodeId i = 60; i < 70; ++i) a.push_back(i);    // straddles blk 0/1
  for (NodeId i = 300; i < 320; ++i) a.push_back(i);  // blocks 4..5
  for (NodeId i = 63; i < 66; ++i) b.push_back(i);
  for (NodeId i = 128; i < 192; ++i) b.push_back(i);  // full block a skips
  for (NodeId i = 310; i < 400; ++i) b.push_back(i);
  uint64_t seeks = 0;
  std::vector<NodeId> out;
  bool ran_dry = kernel_internal::BlockBitmapIntersect2(
      {a.data(), a.size()}, {b.data(), b.size()},
      [](void* ctx, NodeId v) {
        static_cast<std::vector<NodeId>*>(ctx)->push_back(v);
        return true;
      },
      &out, &seeks);
  EXPECT_TRUE(ran_dry);
  EXPECT_EQ(out, Oracle2(a, b));
  EXPECT_GT(seeks, 0u);
}

// ----- GallopLowerBound boundary values -------------------------------------

TEST(LeapfrogKernel, GallopLowerBoundBoundaryValues) {
  // Exhaustive agreement with std::lower_bound on every probe-shape class:
  // empty span, single element, powers of two and 2^k−1 sizes (the doubling
  // cursor lands exactly on n, past n, and one short of n), and targets
  // below, between, at, and past every element.
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                   size_t{7}, size_t{8}, size_t{15}, size_t{16}, size_t{31},
                   size_t{63}, size_t{127}, size_t{255}}) {
    std::vector<NodeId> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<NodeId>(2 * i + 1);
    const NodeId* base = v.data();
    const NodeId* end = v.data() + n;
    for (NodeId target = 0; target <= static_cast<NodeId>(2 * n + 2);
         ++target) {
      EXPECT_EQ(GallopLowerBound(base, end, target),
                std::lower_bound(base, end, target))
          << "n=" << n << " target=" << target;
    }
  }
}

}  // namespace
}  // namespace ged
