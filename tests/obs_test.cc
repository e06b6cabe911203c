// Observability layer tests (src/obs/): metrics-registry correctness under
// concurrent writers, span-tree nesting/merge invariants, the EXPLAIN
// profiler's consistency with the validation report, step-budget abort
// propagation into ValidationReport::aborted_geds, cumulative CommitStats —
// and the load-bearing differential guarantee: enabling observability must
// not change any validation result.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "incr/delta.h"
#include "incr/incremental.h"
#include "obs/obs.h"
#include "reason/validation.h"
#include "validator_testing.h"

namespace ged {
namespace {

// ----- metrics registry -----------------------------------------------------

TEST(MetricsRegistry, EightThreadWritersSumExactly) {
  MetricsRegistry registry;
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kIncrements = 50000;

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t]() {
      for (uint64_t i = 0; i < kIncrements; ++i) {
        registry.Inc(EngineMetric::kMatchSteps);
        registry.Inc(EngineMetric::kMatchMatches, 3);
        registry.Observe(EngineMetric::kScanWallNs, (t + 1) * 100);
      }
    });
  }
  for (auto& t : threads) t.join();
  registry.Set(EngineMetric::kLiveViolations, 42);

  MetricsSnapshot snap = registry.Snapshot();
  auto find = [&](EngineMetric m) -> const MetricValue& {
    return snap.metrics[static_cast<size_t>(m)];
  };
  EXPECT_EQ(find(EngineMetric::kMatchSteps).value, kThreads * kIncrements);
  EXPECT_EQ(find(EngineMetric::kMatchMatches).value,
            3 * kThreads * kIncrements);
  EXPECT_EQ(find(EngineMetric::kLiveViolations).value, 42u);

  const MetricValue& hist = find(EngineMetric::kScanWallNs);
  EXPECT_EQ(hist.kind, MetricKind::kHistogram);
  EXPECT_EQ(hist.count, kThreads * kIncrements);
  uint64_t expected_sum = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    expected_sum += kIncrements * (t + 1) * 100;
  }
  EXPECT_EQ(hist.sum, expected_sum);
  uint64_t bucket_total = 0;
  for (uint64_t b : hist.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hist.count);
}

TEST(MetricsRegistry, CallerRegisteredMetricsCoexistWithTheCatalog) {
  MetricsRegistry registry;
  MetricsRegistry::MetricId id =
      registry.Register("custom.widget_count", MetricKind::kCounter);
  ASSERT_NE(id, SIZE_MAX);
  registry.Inc(id, 7);
  registry.Inc(EngineMetric::kValidateRuns);

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_GT(snap.metrics.size(), id);
  EXPECT_EQ(snap.metrics[id].name, "custom.widget_count");
  EXPECT_EQ(snap.metrics[id].value, 7u);
  EXPECT_EQ(
      snap.metrics[static_cast<size_t>(EngineMetric::kValidateRuns)].value,
      1u);
  EXPECT_NE(snap.ToJson().find("custom.widget_count"), std::string::npos);
}

// ----- trace spans ----------------------------------------------------------

TEST(Tracer, SpansNestPerThreadAndMergeSorted) {
  Tracer tracer;
  constexpr unsigned kThreads = 4;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer]() {
      ScopedSpan outer(&tracer, "Outer");
      {
        ScopedSpan inner1(&tracer, "Inner", "first");
      }
      {
        ScopedSpan inner2(&tracer, "Inner", "second");
        ScopedSpan leaf(&tracer, "Leaf");
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<TraceEvent> events = tracer.Merged();
  ASSERT_EQ(events.size(), kThreads * 4);

  // Parents precede children in the sort order; per thread the tree shape
  // is Outer(Inner, Inner(Leaf)) with strict containment and depths 0/1/2.
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    std::vector<const TraceEvent*> mine;
    for (const TraceEvent& e : events) {
      if (e.tid == tid) mine.push_back(&e);
    }
    ASSERT_EQ(mine.size(), 4u) << "tid " << tid;
    const TraceEvent& outer = *mine[0];
    EXPECT_EQ(outer.name, "Outer");
    EXPECT_EQ(outer.depth, 0u);
    for (size_t i = 1; i < mine.size(); ++i) {
      const TraceEvent& child = *mine[i];
      EXPECT_GE(child.depth, 1u);
      EXPECT_GE(child.start_ns, outer.start_ns);
      EXPECT_LE(child.start_ns + child.dur_ns, outer.start_ns + outer.dur_ns);
    }
    const TraceEvent* leaf = mine[3];
    EXPECT_EQ(leaf->name, "Leaf");
    EXPECT_EQ(leaf->depth, 2u);
    // The leaf is contained in the second Inner span.
    const TraceEvent* inner2 = mine[2];
    EXPECT_EQ(inner2->arg, "second");
    EXPECT_GE(leaf->start_ns, inner2->start_ns);
    EXPECT_LE(leaf->start_ns + leaf->dur_ns,
              inner2->start_ns + inner2->dur_ns);
  }

  std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"threads\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
  std::string chrome = tracer.ToChromeTrace();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Tracer, NullTracerSpansAreNoOps) {
  ScopedSpan span(nullptr, "Nothing");  // must not crash or record
}

// ----- differential: obs on ≡ obs off ---------------------------------------

void ExpectObsDoesNotChangeReports(const Graph& g,
                                   const std::vector<Ged>& sigma) {
  for (bool compiled : {true, false}) {
    for (unsigned threads : {1u, 4u}) {
      ValidationOptions plain;
      plain.policy.plan = compiled ? PlanMode::kCompiled : PlanMode::kPerRule;
      plain.num_threads = threads;
      ValidationReport baseline = Validate(g, sigma, plain);

      ObsSession session;
      ValidationOptions instrumented = plain;
      instrumented.obs = session.Options();
      ValidationReport observed = Validate(g, sigma, instrumented);

      EXPECT_EQ(observed.satisfied, baseline.satisfied)
          << "compiled=" << compiled << " threads=" << threads;
      EXPECT_EQ(observed.violations, baseline.violations)
          << "compiled=" << compiled << " threads=" << threads;
      EXPECT_EQ(observed.matches_checked, baseline.matches_checked)
          << "compiled=" << compiled << " threads=" << threads;
      EXPECT_EQ(observed.aborted_geds, baseline.aborted_geds)
          << "compiled=" << compiled << " threads=" << threads;

      // The instrumented run actually recorded something.
      MetricsSnapshot snap = session.Metrics().Snapshot();
      EXPECT_EQ(snap.metrics[static_cast<size_t>(EngineMetric::kValidateRuns)]
                    .value,
                1u);
      EXPECT_EQ(snap.metrics[static_cast<size_t>(
                                 EngineMetric::kValidateMatchesChecked)]
                    .value,
                baseline.matches_checked);
      EXPECT_FALSE(session.Trace().Merged().empty());
    }
  }
}

TEST(ObsDifferential, KnowledgeBaseScenario) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  ExpectObsDoesNotChangeReports(kb.graph, Example1Geds());
}

TEST(ObsDifferential, RandomWorkload) {
  RandomGraphParams gp;
  gp.num_nodes = 80;
  gp.seed = 11;
  RandomGedParams rp;
  rp.pattern_vars = 3;
  rp.pattern_edges = 2;
  rp.seed = 12;
  ExpectObsDoesNotChangeReports(RandomPropertyGraph(gp), RandomGeds(5, rp));
}

// ----- EXPLAIN profiler -----------------------------------------------------

TEST(Profiler, ReportTotalsMatchTheValidationReport) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  std::vector<Ged> sigma = Example1Geds();

  ObsSession session;
  ValidationOptions opts;
  opts.obs = session.Options();
  int64_t start = MonotonicNowNs();
  ValidationReport report = Validate(kb.graph, sigma, opts);
  ProfileReport profile = session.Profiler().Finish(MonotonicNowNs() - start);

  EXPECT_EQ(profile.matches_checked, report.matches_checked);
  EXPECT_EQ(profile.violations, report.violations.size());
  EXPECT_EQ(profile.aborted_geds, report.aborted_geds.size());
  ASSERT_EQ(profile.rules.size(), sigma.size());
  for (size_t i = 0; i < profile.rules.size(); ++i) {
    EXPECT_EQ(profile.rules[i].ged_index, i);  // Finish sorts by ged_index
    EXPECT_EQ(profile.rules[i].name, sigma[i].name());
    EXPECT_LT(profile.rules[i].bucket, profile.buckets.size());
  }
  EXPECT_FALSE(profile.buckets.empty());
  uint64_t scans = 0;
  for (const ProfileReport::Bucket& b : profile.buckets) scans += b.scans;
  EXPECT_GT(scans, 0u);

  std::string json = profile.ToJson();
  EXPECT_NE(json.find("gedlib_profile_v1"), std::string::npos);
  EXPECT_NE(json.find("\"rules\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  std::string table = profile.ToTable();
  EXPECT_NE(table.find(sigma[0].name()), std::string::npos);
}

TEST(Profiler, CollectorResetClearsTheRun) {
  ProfileCollector collector;
  collector.DeclareBucket(0, "vars=1,edges=0");
  collector.DeclareRule(0, "r", 0);
  collector.AddRuleCounts(0, 5, 1, false);
  collector.Reset();
  ProfileReport empty = collector.Finish(0);
  EXPECT_TRUE(empty.rules.empty());
  EXPECT_TRUE(empty.buckets.empty());
  EXPECT_EQ(empty.matches_checked, 0u);
}

// ----- step-budget abort propagation ----------------------------------------

TEST(AbortPropagation, StepBudgetSurfacesAbortedGeds) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  std::vector<Ged> sigma = Example1Geds();

  for (bool compiled : {true, false}) {
    ValidationOptions opts;
    opts.policy.plan = compiled ? PlanMode::kCompiled : PlanMode::kPerRule;

    // Unbudgeted (the default 0): nothing aborts.
    ValidationReport full = Validate(kb.graph, sigma, opts);
    EXPECT_TRUE(full.aborted_geds.empty()) << "compiled=" << compiled;

    // A generous budget no scan reaches: identical report, still no aborts.
    opts.max_steps_per_scan = 1000000000;
    ValidationReport generous = Validate(kb.graph, sigma, opts);
    EXPECT_TRUE(generous.aborted_geds.empty()) << "compiled=" << compiled;
    EXPECT_EQ(generous.violations, full.violations) << "compiled=" << compiled;

    // A one-step budget truncates every non-trivial scan; the truncated
    // GEDs must be reported sorted and duplicate-free.
    opts.max_steps_per_scan = 1;
    ObsSession session;
    opts.obs = session.Options();
    ValidationReport truncated = Validate(kb.graph, sigma, opts);
    ASSERT_FALSE(truncated.aborted_geds.empty()) << "compiled=" << compiled;
    EXPECT_TRUE(std::is_sorted(truncated.aborted_geds.begin(),
                               truncated.aborted_geds.end()));
    EXPECT_EQ(std::adjacent_find(truncated.aborted_geds.begin(),
                                 truncated.aborted_geds.end()),
              truncated.aborted_geds.end());
    for (size_t ged : truncated.aborted_geds) EXPECT_LT(ged, sigma.size());

    // The profiler flags exactly the same rules as aborted.
    ProfileReport profile = session.Profiler().Finish(0);
    std::vector<size_t> flagged;
    for (const ProfileReport::Rule& r : profile.rules) {
      if (r.aborted) flagged.push_back(r.ged_index);
    }
    EXPECT_EQ(flagged, truncated.aborted_geds) << "compiled=" << compiled;
    EXPECT_EQ(profile.aborted_geds, truncated.aborted_geds.size());
  }
}

TEST(AbortPropagation, ParallelRunsAgreeWithSerial) {
  RandomGraphParams gp;
  gp.num_nodes = 80;
  gp.seed = 21;
  Graph g = RandomPropertyGraph(gp);
  RandomGedParams rp;
  rp.pattern_vars = 3;
  rp.pattern_edges = 2;
  rp.seed = 22;
  std::vector<Ged> sigma = RandomGeds(5, rp);

  ValidationOptions opts;
  opts.max_steps_per_scan = 2;
  ValidationReport serial = Validate(g, sigma, opts);
  // With a budget this small some scan must have been truncated, or the
  // regression guard is vacuous.
  ASSERT_FALSE(serial.aborted_geds.empty());
  for (unsigned threads : {2u, 8u}) {
    opts.num_threads = threads;
    ValidationReport parallel = Validate(g, sigma, opts);
    // Work items partition the scan differently, so violation lists can
    // differ under truncation — but the aborted set is per (bucket, budget)
    // and must stay sorted, unique, and in range.
    EXPECT_TRUE(std::is_sorted(parallel.aborted_geds.begin(),
                               parallel.aborted_geds.end()));
    for (size_t ged : parallel.aborted_geds) EXPECT_LT(ged, sigma.size());
  }
}

// ----- incremental commits --------------------------------------------------

TEST(CommitStats, TotalsAccumulateAcrossCommits) {
  RandomGraphParams gp;
  gp.num_nodes = 40;
  gp.seed = 31;
  Graph g = RandomPropertyGraph(gp);
  RandomGedParams rp;
  rp.pattern_vars = 2;
  rp.pattern_edges = 1;
  rp.seed = 32;
  std::vector<Ged> sigma = RandomGeds(4, rp);

  ObsSession session;
  ValidationOptions opts;
  opts.obs = session.Options();
  auto validator = CreateValidator(std::move(g), std::move(sigma), opts);

  uint64_t sum_touched = 0, sum_retracted = 0, sum_added = 0, sum_checked = 0;
  constexpr uint64_t kCommits = 3;
  for (int c = 0; c < static_cast<int>(kCommits); ++c) {
    GraphDelta delta = validator->NewDelta();
    NodeId n = delta.AddNode(validator->graph().label(0));
    delta.AddEdge(static_cast<NodeId>(c), "obs_e", n);
    delta.SetAttr(static_cast<NodeId>(c + 1), "k", Value(100 + c));
    auto applied = validator->Commit(delta);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();

    const IncrementalValidator::CommitStats& s = validator->last_commit();
    sum_touched += s.touched;
    sum_retracted += s.retracted;
    sum_added += s.added;
    sum_checked += s.matches_checked;
    EXPECT_EQ(s.commits, static_cast<uint64_t>(c + 1));
    EXPECT_EQ(s.total_touched, sum_touched);
    EXPECT_EQ(s.total_retracted, sum_retracted);
    EXPECT_EQ(s.total_added, sum_added);
    EXPECT_EQ(s.total_matches_checked, sum_checked);
  }

  // The metrics registry mirrors the cumulative totals.
  MetricsSnapshot snap = session.Metrics().Snapshot();
  auto value = [&](EngineMetric m) {
    return snap.metrics[static_cast<size_t>(m)].value;
  };
  EXPECT_EQ(value(EngineMetric::kCommitRuns), kCommits);
  EXPECT_EQ(value(EngineMetric::kCommitTouched), sum_touched);
  EXPECT_EQ(value(EngineMetric::kCommitRetracted), sum_retracted);
  EXPECT_EQ(value(EngineMetric::kCommitAdded), sum_added);
  EXPECT_EQ(value(EngineMetric::kCommitMatchesChecked), sum_checked);
  EXPECT_EQ(value(EngineMetric::kLiveViolations),
            validator->report().violations.size());

  // And the maintained report is still exact — with observability enabled
  // end to end, the incremental paths must agree with from-scratch
  // validation just as they do uninstrumented.
  ValidationReport oracle = validator->RevalidateFull();
  EXPECT_EQ(validator->report().violations, oracle.violations);
  EXPECT_EQ(validator->report().satisfied, oracle.satisfied);
}

}  // namespace
}  // namespace ged
