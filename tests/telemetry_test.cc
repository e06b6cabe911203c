// Serving-telemetry layer tests: histogram quantiles, the metrics exporter
// (fake-clock ticks, the delta-sum ≡ cumulative identity under concurrent
// writers, Prometheus / JSONL shape), the flight recorder (thresholds, ring
// eviction, end-to-end slow-scan and slow-commit capture), and the
// structured logger (levels, rate limiting, escaping).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "gen/scenarios.h"
#include "incr/delta.h"
#include "incr/incremental.h"
#include "obs/exporter.h"
#include "obs/flightrec.h"
#include "obs/log.h"
#include "obs/obs.h"
#include "reason/validation.h"
#include "validator_testing.h"

namespace ged {
namespace {

// ----- quantiles ------------------------------------------------------------

TEST(HistogramQuantileTest, EmptyHistogramIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(0.99), 0.0);
}

// The estimate must land within the containing power-of-two bucket of the
// exact sample quantile (that is the best any bucketed sketch can promise).
TEST(HistogramQuantileTest, WithinContainingBucketOnExactSamples) {
  std::vector<uint64_t> samples;
  for (uint64_t i = 1; i <= 1000; ++i) samples.push_back(i * 17);  // 17..17000
  LatencyHistogram h;
  for (uint64_t s : samples) h.Observe(s);
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    uint64_t exact =
        samples[static_cast<size_t>(q * (samples.size() - 1))];
    double est = h.Quantile(q);
    // Containing bucket of `exact` is [2^b, 2^(b+1)).
    double lo = std::pow(2.0, std::floor(std::log2(exact)));
    EXPECT_GE(est, lo) << "q=" << q;
    EXPECT_LE(est, 2.0 * lo) << "q=" << q;
  }
}

TEST(HistogramQuantileTest, MonotoneInQ) {
  LatencyHistogram h;
  for (uint64_t s : {3u, 70u, 900u, 4000u, 100000u, 7u, 7u, 7u}) h.Observe(s);
  double p50 = h.Quantile(0.50), p95 = h.Quantile(0.95),
         p99 = h.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
}

TEST(HistogramQuantileTest, SingleValueLandsInItsBucket) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Observe(1000);  // bucket 9: [512, 1024)
  for (double q : {0.01, 0.5, 0.99}) {
    EXPECT_GE(h.Quantile(q), 512.0);
    EXPECT_LE(h.Quantile(q), 1024.0);
  }
}

TEST(MetricsSnapshotTest, TableIncludesQuantiles) {
  MetricsRegistry reg;
  reg.Inc(EngineMetric::kValidateRuns, 3);
  reg.Observe(EngineMetric::kValidateWallNs, 5000);
  reg.Observe(EngineMetric::kValidateWallNs, 9000);
  std::string table = reg.Snapshot().ToTable();
  EXPECT_NE(table.find("validate.runs"), std::string::npos);
  EXPECT_NE(table.find("p50"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
}

// ----- exporter -------------------------------------------------------------

// The telescoping identity: regardless of how writer threads race the
// ticks, the sum of interval deltas equals the final cumulative snapshot
// exactly — counters, histogram counts, sums and buckets.
TEST(MetricsExporterTest, SummedDeltasTelescopeUnderConcurrentWriters) {
  MetricsRegistry reg;
  int64_t fake_now = 0;
  ExporterOptions opts;
  opts.clock = [&fake_now] { return fake_now; };
  MetricsExporter exporter(&reg, std::move(opts));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, &go, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        reg.Inc(EngineMetric::kMatchSteps);
        reg.Observe(EngineMetric::kScanWallNs,
                    static_cast<uint64_t>(t * 1000 + i));
      }
    });
  }
  go.store(true);
  // Tick concurrently with the writers: intermediate deltas are racy
  // samples, which the identity must absorb.
  for (int k = 0; k < 20; ++k) {
    fake_now += 1'000'000;
    exporter.Tick();
  }
  for (auto& w : writers) w.join();
  fake_now += 1'000'000;
  exporter.Tick();  // final tick after all writers quiesce

  MetricsSnapshot final_snap = reg.Snapshot();
  MetricsSnapshot summed = exporter.SummedDeltas();
  ASSERT_EQ(summed.metrics.size(), final_snap.metrics.size());
  for (size_t i = 0; i < final_snap.metrics.size(); ++i) {
    const MetricValue& a = summed.metrics[i];
    const MetricValue& b = final_snap.metrics[i];
    if (b.kind == MetricKind::kGauge) continue;
    if (b.kind == MetricKind::kCounter) {
      EXPECT_EQ(a.value, b.value) << b.name;
    } else {
      EXPECT_EQ(a.count, b.count) << b.name;
      EXPECT_EQ(a.sum, b.sum) << b.name;
      EXPECT_EQ(a.buckets, b.buckets) << b.name;
    }
  }
  uint64_t steps =
      final_snap.metrics[static_cast<size_t>(EngineMetric::kMatchSteps)].value;
  EXPECT_EQ(steps, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsExporterTest, RateDerivation) {
  MetricsRegistry reg;
  int64_t fake_now = 0;
  ExporterOptions opts;
  opts.clock = [&fake_now] { return fake_now; };
  MetricsExporter exporter(&reg, std::move(opts));
  exporter.Tick();  // establish the baseline at t=0

  reg.Inc(EngineMetric::kValidateRuns, 100);
  fake_now += 2'000'000'000;  // +2s
  IntervalRecord rec = exporter.Tick();
  const MetricDelta& d =
      rec.deltas[static_cast<size_t>(EngineMetric::kValidateRuns)];
  EXPECT_EQ(d.delta, 100u);
  EXPECT_NEAR(d.rate, 50.0, 1e-9);
}

TEST(MetricsExporterTest, FirstTickDeltaIsFullCumulative) {
  MetricsRegistry reg;
  reg.Inc(EngineMetric::kValidateRuns, 7);
  int64_t fake_now = 5;
  ExporterOptions opts;
  opts.clock = [&fake_now] { return fake_now; };
  MetricsExporter exporter(&reg, std::move(opts));
  IntervalRecord rec = exporter.Tick();
  EXPECT_EQ(rec.seq, 1u);
  EXPECT_EQ(rec.interval_ns, 0);
  EXPECT_EQ(rec.deltas[static_cast<size_t>(EngineMetric::kValidateRuns)].delta,
            7u);
}

TEST(MetricsExporterTest, PrometheusOutputShape) {
  MetricsRegistry reg;
  reg.Inc(EngineMetric::kValidateRuns, 4);
  reg.Set(EngineMetric::kGraphNodes, 123);
  reg.Observe(EngineMetric::kValidateWallNs, 3);
  reg.Observe(EngineMetric::kValidateWallNs, 5);
  std::string prom = reg.Snapshot().ToPrometheus();
  EXPECT_NE(prom.find("# TYPE gedlib_validate_runs_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("gedlib_validate_runs_total 4"), std::string::npos);
  EXPECT_NE(prom.find("gedlib_graph_nodes 123"), std::string::npos);
  EXPECT_NE(prom.find("gedlib_validate_wall_ns_count 2"), std::string::npos);
  EXPECT_NE(prom.find("gedlib_validate_wall_ns_sum 8"), std::string::npos);
  EXPECT_NE(prom.find("gedlib_validate_wall_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  // Cumulative le buckets: both observations fall under le="8" (buckets 1
  // and 2 → upper bounds 4 and 8).
  EXPECT_NE(prom.find("gedlib_validate_wall_ns_bucket{le=\"8\"} 2"),
            std::string::npos);
  // No dots survive sanitization.
  EXPECT_EQ(prom.find("validate.runs"), std::string::npos);
}

TEST(MetricsExporterTest, JsonLineShape) {
  MetricsRegistry reg;
  reg.Inc(EngineMetric::kValidateRuns, 2);
  int64_t fake_now = 10;
  ExporterOptions opts;
  opts.clock = [&fake_now] { return fake_now; };
  MetricsExporter exporter(&reg, std::move(opts));
  IntervalRecord rec = exporter.Tick();
  std::string line = rec.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"schema\":\"gedlib_metrics_v1\""), std::string::npos);
  EXPECT_NE(line.find("\"validate.runs\":{\"delta\":2,\"total\":2"),
            std::string::npos);
  // Untouched metrics are elided.
  EXPECT_EQ(line.find("commit.runs"), std::string::npos);
}

// ----- flight recorder ------------------------------------------------------

TEST(FlightRecorderTest, DefaultThresholdsNeverFire) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.ShouldCapture(FlightRecorder::Kind::kScan, INT64_MAX - 1));
  EXPECT_FALSE(
      rec.ShouldCapture(FlightRecorder::Kind::kCommit, INT64_MAX - 1));
}

TEST(FlightRecorderTest, ThresholdGatesExactly) {
  FlightRecorder rec;
  rec.set_scan_threshold_ns(1000);
  EXPECT_FALSE(rec.ShouldCapture(FlightRecorder::Kind::kScan, 999));
  EXPECT_TRUE(rec.ShouldCapture(FlightRecorder::Kind::kScan, 1000));
  // The commit threshold is independent.
  EXPECT_FALSE(rec.ShouldCapture(FlightRecorder::Kind::kCommit, 1000));
}

TEST(FlightRecorderTest, RingEvictsOldest) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.Record(FlightRecorder::Kind::kScan, "s" + std::to_string(i), i, "{}");
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_captures(), 10u);
  EXPECT_EQ(rec.evicted(), 6u);
  std::vector<FlightRecorder::Capture> caps = rec.Snapshot();
  ASSERT_EQ(caps.size(), 4u);
  EXPECT_EQ(caps.front().arg, "s6");  // oldest surviving
  EXPECT_EQ(caps.back().arg, "s9");
  EXPECT_EQ(caps.front().seq, 7u);    // 1-based
}

TEST(FlightRecorderTest, DumpJsonShape) {
  FlightRecorder rec(2);
  rec.set_scan_threshold_ns(5);
  rec.Record(FlightRecorder::Kind::kScan, "bucket=3", 42,
             "{\"steps\":7}");
  std::string dump = rec.DumpJson();
  EXPECT_NE(dump.find("\"schema\":\"gedlib_flight_v1\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"scan\""), std::string::npos);
  EXPECT_NE(dump.find("\"arg\":\"bucket=3\""), std::string::npos);
  EXPECT_NE(dump.find("\"dur_ns\":42"), std::string::npos);
  EXPECT_NE(dump.find("\"detail\":{\"steps\":7}"), std::string::npos);
  EXPECT_NE(dump.find("\"scan_threshold_ns\":5"), std::string::npos);
}

// End to end: threshold 0 means every scan of a Validate run is "slow";
// the capture carries the scan's profile as evidence.
TEST(FlightRecorderTest, CapturesSlowScanThroughValidate) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  ObsSession session;
  session.Recorder().set_scan_threshold_ns(0);
  ValidationOptions opts;
  opts.obs = session.Options();
  ValidationReport report = Validate(kb.graph, Example1Geds(), opts);
  (void)report;
  EXPECT_GE(session.Recorder().total_captures(), 1u);
  std::vector<FlightRecorder::Capture> caps = session.Recorder().Snapshot();
  ASSERT_FALSE(caps.empty());
  EXPECT_EQ(caps[0].kind, FlightRecorder::Kind::kScan);
  EXPECT_NE(caps[0].detail_json.find("\"steps\""), std::string::npos);
}

TEST(FlightRecorderTest, CapturesSlowCommitWithStatsAndSpans) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  ObsSession session;
  session.Recorder().set_commit_threshold_ns(0);
  ValidationOptions opts;
  opts.obs = session.Options();
  auto v = CreateValidator(kb.graph, Example1Geds(), opts);

  GraphDelta d(v->graph());
  NodeId p = d.AddNode(Sym("product"));
  d.SetAttr(p, Sym("type"), Value("book"));
  ASSERT_TRUE(v->Commit(d).ok());

  std::vector<FlightRecorder::Capture> caps = session.Recorder().Snapshot();
  bool found_commit = false;
  for (const auto& c : caps) {
    if (c.kind != FlightRecorder::Kind::kCommit) continue;
    found_commit = true;
    EXPECT_NE(c.detail_json.find("\"stats\""), std::string::npos);
    EXPECT_NE(c.detail_json.find("\"spans\""), std::string::npos);
    EXPECT_EQ(c.arg, "commit=1");
  }
  EXPECT_TRUE(found_commit);
}

// ----- structured logger ----------------------------------------------------

TEST(StructuredLoggerTest, LevelFilter) {
  std::vector<std::string> lines;
  LoggerOptions opts;
  opts.min_level = LogLevel::kWarn;
  opts.sink = [&lines](const std::string& l) { lines.push_back(l); };
  opts.clock = [] { return int64_t{0}; };
  StructuredLogger log(std::move(opts));
  EXPECT_FALSE(log.Enabled(LogLevel::kDebug));
  EXPECT_TRUE(log.Enabled(LogLevel::kError));
  log.Log(LogLevel::kInfo, "dropped");
  log.Log(LogLevel::kWarn, "kept");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"event\":\"kept\""), std::string::npos);
}

TEST(StructuredLoggerTest, FieldsAndEscaping) {
  std::vector<std::string> lines;
  LoggerOptions opts;
  opts.sink = [&lines](const std::string& l) { lines.push_back(l); };
  opts.clock = [] { return int64_t{42}; };
  StructuredLogger log(std::move(opts));
  log.Log(LogLevel::kInfo, "evt",
          {{"n", 17}, {"ok", true}, {"msg", std::string("a\"b\nc")},
           {"rate", 1.5}});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ts_ns\":42"), std::string::npos);
  EXPECT_NE(lines[0].find("\"n\":17"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"msg\":\"a\\\"b\\nc\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"rate\":1.5"), std::string::npos);
}

TEST(StructuredLoggerTest, RateLimitAndOverflowReport) {
  std::vector<std::string> lines;
  int64_t fake_now = 0;
  LoggerOptions opts;
  opts.max_per_window = 2;
  opts.window_ns = 1'000'000'000;
  opts.sink = [&lines](const std::string& l) { lines.push_back(l); };
  opts.clock = [&fake_now] { return fake_now; };
  StructuredLogger log(std::move(opts));

  for (int i = 0; i < 5; ++i) log.Log(LogLevel::kInfo, "storm");
  EXPECT_EQ(log.emitted(), 2u);
  EXPECT_EQ(log.suppressed(), 3u);
  ASSERT_EQ(lines.size(), 2u);

  // Another event name has its own window.
  log.Log(LogLevel::kInfo, "other");
  EXPECT_EQ(lines.size(), 3u);

  // Roll the window: the first "storm" line reports the prior overflow.
  fake_now += 2'000'000'000;
  log.Log(LogLevel::kInfo, "storm");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[3].find("\"suppressed_prev_window\":3"), std::string::npos);
  // A second line in the fresh window does not repeat it.
  log.Log(LogLevel::kInfo, "storm");
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[4].find("suppressed_prev_window"), std::string::npos);
}

TEST(StructuredLoggerTest, SlowScanWarningIsLogged) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  ObsSession session;
  std::vector<std::string> lines;
  LoggerOptions lopts;
  lopts.min_level = LogLevel::kDebug;
  lopts.sink = [&lines](const std::string& l) { lines.push_back(l); };
  session.Log().Configure(std::move(lopts));
  session.Recorder().set_scan_threshold_ns(0);
  ValidationOptions opts;
  opts.obs = session.Options();
  (void)Validate(kb.graph, Example1Geds(), opts);
  bool saw_slow_scan = false;
  for (const auto& l : lines) {
    if (l.find("\"event\":\"slow_scan\"") != std::string::npos) {
      saw_slow_scan = true;
    }
  }
  EXPECT_TRUE(saw_slow_scan);
}

// Disabled obs must keep every telemetry sink silent even when wired.
TEST(ObsOptionsTest, DisabledReturnsNullTelemetrySinks) {
  ObsSession session;
  ObsOptions o = session.Options();
  o.enabled = false;
  EXPECT_EQ(o.Recorder(), nullptr);
  EXPECT_EQ(o.Log(), nullptr);
  EXPECT_FALSE(o.Active());
}

}  // namespace
}  // namespace ged
