#include "reason/validation.h"

#include "graph/overlay.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

namespace ged {

namespace {

MatchOptions BaseMatchOptions(const ValidationOptions& vopts) {
  const ExecutionPolicy& policy = vopts.policy;
  MatchOptions mopts;
  mopts.semantics = vopts.semantics;
  mopts.degree_filter = vopts.degree_filter;
  mopts.smart_order = vopts.smart_order;
  mopts.use_intersection = policy.join != JoinStrategy::kPickSmallest;
  mopts.kernel_backend = policy.kernel;
  mopts.max_steps = vopts.max_steps_per_scan;
  mopts.obs = vopts.obs;
  return mopts;
}

// Per-worker accumulator threaded through every scan flavor: the violation
// buffer, the (match, rule) counter, and the GED indices whose scan hit the
// per-scan step budget.
struct WorkerState {
  std::vector<Violation> violations;
  uint64_t checked = 0;
  std::vector<size_t> aborted;
};

// Short human-readable pattern shape for profile rows.
std::string PatternDesc(const Pattern& q) {
  return "vars=" + std::to_string(q.NumVars()) +
         ",edges=" + std::to_string(q.edges().size());
}

// Per-scan-task observability, shared by every bucket scan flavor: opens the
// "Match" trace span, wires the profiler's MatchProfile sink into the
// MatchOptions (one profile per task — pinned sub-runs accumulate into it),
// and on Finish() hands profile + wall time to the collector / metrics.
// All clock reads are skipped when nothing listens.
class ScanObs {
 public:
  ScanObs(const ValidationOptions& vopts, size_t bucket_id,
          MatchOptions* mopts)
      : profiler_(vopts.obs.Profiler()),
        metrics_(vopts.obs.Metrics()),
        recorder_(vopts.obs.Recorder()),
        logger_(vopts.obs.Log()),
        bucket_id_(bucket_id),
        span_(vopts.obs.Trace(), "Match",
              vopts.obs.Trace() == nullptr
                  ? std::string{}
                  : "bucket=" + std::to_string(bucket_id)) {
    // The flight recorder needs the profile too — it is the evidence a
    // slow-scan capture serializes.
    if (profiler_ != nullptr || recorder_ != nullptr) mopts->profile = &prof_;
    if (profiler_ != nullptr || metrics_ != nullptr || recorder_ != nullptr) {
      start_ns_ = MonotonicNowNs();
      timed_ = true;
    }
  }

  ProfileCollector* profiler() const { return profiler_; }

  void Finish() {
    if (!timed_) return;
    int64_t wall = std::max<int64_t>(0, MonotonicNowNs() - start_ns_);
    if (metrics_ != nullptr) {
      metrics_->Observe(EngineMetric::kScanWallNs,
                        static_cast<uint64_t>(wall));
    }
    if (profiler_ != nullptr) profiler_->AddScan(bucket_id_, prof_, wall);
    if (recorder_ != nullptr &&
        recorder_->ShouldCapture(FlightRecorder::Kind::kScan, wall)) {
      std::string arg = "bucket=" + std::to_string(bucket_id_);
      recorder_->Record(FlightRecorder::Kind::kScan, arg, wall,
                        MatchProfileToJson(prof_));
      if (logger_ != nullptr) {
        logger_->Log(LogLevel::kWarn, "slow_scan",
                     {{"scan", arg},
                      {"wall_ns", wall},
                      {"steps", prof_.steps},
                      {"matches", prof_.matches}});
      }
    }
  }

 private:
  ProfileCollector* profiler_;
  MetricsRegistry* metrics_;
  FlightRecorder* recorder_;
  StructuredLogger* logger_;
  size_t bucket_id_;
  ScopedSpan span_;
  MatchProfile prof_;
  bool timed_ = false;
  int64_t start_ns_ = 0;
};

// Sorts, applies the deterministic per-GED cap, dedups the aborted-GED
// list, and sets `satisfied` — under the "ViolationEmit" span.
void FinalizeReport(ValidationReport* report,
                    const ValidationOptions& options) {
  ScopedSpan span(options.obs.Trace(), "ViolationEmit");
  ProfileCollector* profiler = options.obs.Profiler();
  int64_t start_ns = profiler == nullptr ? 0 : MonotonicNowNs();
  SortViolationList(&report->violations);
  TruncateViolationsPerGed(&report->violations,
                           options.max_violations_per_ged);
  std::sort(report->aborted_geds.begin(), report->aborted_geds.end());
  report->aborted_geds.erase(
      std::unique(report->aborted_geds.begin(), report->aborted_geds.end()),
      report->aborted_geds.end());
  report->satisfied = report->violations.empty();
  if (profiler != nullptr) profiler->AddEmitNs(MonotonicNowNs() - start_ns);
}

// Converts an accumulated WorkerState into the final sorted report.
ValidationReport ReportFromWorker(WorkerState ws,
                                  const ValidationOptions& options) {
  ValidationReport report;
  report.violations = std::move(ws.violations);
  report.matches_checked = ws.checked;
  report.aborted_geds = std::move(ws.aborted);
  FinalizeReport(&report, options);
  return report;
}

// Builds the MatchOptions of one touching run: variable x restricted to the
// label-compatible nodes of `pins` (one batched search), and matches where
// an earlier variable binds a touched node suppressed in-search — the
// canonical-run dedup of EnumerateMatchesTouching, each match owned by the
// run of its smallest touched variable. Returns false when no pin is
// compatible (skip the run). `touched` must outlive the enumeration.
template <typename GView>
bool TouchingRunOptions(const GView& g, const Pattern& q,
                        const ValidationOptions& vopts, VarId x,
                        const std::vector<NodeId>& pins,
                        const std::vector<NodeId>& touched,
                        MatchOptions* mopts) {
  std::vector<NodeId> allowed;
  for (NodeId pin : pins) {
    if (LabelMatches(q.label(x), g.label(pin))) allowed.push_back(pin);
  }
  if (allowed.empty()) return false;
  *mopts = BaseMatchOptions(vopts);
  mopts->restricted.emplace_back(x, std::move(allowed));
  mopts->exclude_before_var = x;
  mopts->exclude_nodes = &touched;
  return true;
}

// ----- bucket scans (plan/ScanBucket wrappers) ------------------------------

// Post-scan accounting shared by the bucket scan flavors: a step-budget
// abort taints every member rule, and the profiler gets per-rule checked
// counts (= enumerated matches — every match checks every member rule that
// can fire under `sem`) plus the violations this scan appended at
// [viol_start..).
void AccountBucketScan(const PlanBucket& bucket, size_t bucket_id,
                       MatchSemantics sem, const MatchStats& stats,
                       WorkerState* ws, size_t viol_start,
                       ProfileCollector* profiler) {
  if (stats.aborted) {
    for (const PlanRule& r : bucket.rules) ws->aborted.push_back(r.ged_index);
  }
  if (profiler == nullptr) return;
  profiler->DeclareBucket(bucket_id, PatternDesc(bucket.pattern));
  for (const PlanRule& r : bucket.rules) {
    profiler->DeclareRule(r.ged_index, r.name, bucket_id);
    uint64_t viols = 0;
    for (size_t i = viol_start; i < ws->violations.size(); ++i) {
      if (ws->violations[i].ged_index == r.ged_index) ++viols;
    }
    profiler->AddRuleCounts(r.ged_index, r.CanFire(sem) ? stats.matches : 0,
                            viols, stats.aborted);
  }
}

// One scan task of one bucket: an unpinned full run when `pins` is empty,
// otherwise one pinned run per pin (all under one scan-task profile/span).
template <typename GView>
void ScanBucketInto(const GView& g, const PlanBucket& bucket,
                    size_t bucket_id, const ValidationOptions& vopts,
                    VarId pin_var, const std::vector<NodeId>& pins,
                    WorkerState* ws) {
  MatchOptions mopts = BaseMatchOptions(vopts);
  ScanObs obs(vopts, bucket_id, &mopts);
  size_t viol_start = ws->violations.size();
  auto on_violation = [&](size_t ged_index, const Match& rule_match) {
    ws->violations.push_back(Violation{ged_index, rule_match});
    return true;
  };
  MatchStats stats;
  auto run = [&]() {
    MatchStats s = ScanBucket(g, bucket, mopts, &ws->checked, on_violation);
    stats.matches += s.matches;
    stats.steps += s.steps;
    stats.aborted |= s.aborted;
  };
  if (pins.empty()) {
    run();
  } else {
    mopts.pinned.resize(1);
    for (NodeId pin : pins) {
      mopts.pinned[0] = {pin_var, pin};
      run();
    }
  }
  AccountBucketScan(bucket, bucket_id, vopts.semantics, stats, ws, viol_start,
                    obs.profiler());
  obs.Finish();
}

// The touching run (x, pins) of one bucket: canonical-run dedup via
// exclusion pruning, every member rule checked per match.
template <typename GView>
void ScanBucketTouching(const GView& g, const PlanBucket& bucket,
                        size_t bucket_id, const ValidationOptions& vopts,
                        VarId x, const std::vector<NodeId>& pins,
                        const std::vector<NodeId>& touched, WorkerState* ws) {
  MatchOptions mopts;
  if (!TouchingRunOptions(g, bucket.pattern, vopts, x, pins, touched,
                          &mopts)) {
    return;
  }
  ScanObs obs(vopts, bucket_id, &mopts);
  size_t viol_start = ws->violations.size();
  MatchStats stats =
      ScanBucket(g, bucket, mopts, &ws->checked,
                 [&](size_t ged_index, const Match& rule_match) {
                   ws->violations.push_back(Violation{ged_index, rule_match});
                   return true;
                 });
  AccountBucketScan(bucket, bucket_id, vopts.semantics, stats, ws, viol_start,
                    obs.profiler());
  obs.Finish();
}

// ----- parallel driver ------------------------------------------------------

// Drains `num_items` indexed work items across options.num_threads workers.
// Each worker accumulates into a local WorkerState merged under one mutex.
// `scan(item, ws)` performs one item's scan. Deterministic: items partition
// the match space exactly, and the merged report is sorted (and
// cap-truncated to the smallest) afterwards.
ValidationReport RunParallelScan(
    size_t num_items, const ValidationOptions& options,
    const std::function<void(size_t, WorkerState*)>& scan) {
  std::atomic<size_t> next{0};
  std::mutex mu;
  WorkerState merged;

  auto worker = [&]() {
    WorkerState local;
    while (true) {
      size_t k = next.fetch_add(1);
      if (k >= num_items) break;
      scan(k, &local);
    }
    std::lock_guard<std::mutex> lock(mu);
    merged.violations.insert(merged.violations.end(),
                             std::make_move_iterator(local.violations.begin()),
                             std::make_move_iterator(local.violations.end()));
    merged.checked += local.checked;
    merged.aborted.insert(merged.aborted.end(), local.aborted.begin(),
                          local.aborted.end());
  };

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < options.num_threads; ++t) {
    threads.emplace_back(worker);
  }
  for (auto& t : threads) t.join();

  return ReportFromWorker(std::move(merged), options);
}

// Candidate nodes for pinning variable `pin` of `q` in `g`.
template <typename GView>
std::vector<NodeId> PinCandidates(const Pattern& q, VarId pin,
                                  const GView& g) {
  Label l = q.label(pin);
  if (l != kWildcard) {
    auto nodes = g.NodesWithLabel(l);
    return std::vector<NodeId>(nodes.begin(), nodes.end());
  }
  std::vector<NodeId> candidates(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) candidates[v] = v;
  return candidates;
}

// ----- Validate -------------------------------------------------------------

template <typename GView>
ValidationReport ValidateSerialPlan(const GView& g, const RulesetPlan& plan,
                                    const ValidationOptions& options) {
  WorkerState ws;
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    ScanBucketInto(g, plan.buckets[b], b, options, 0, {}, &ws);
  }
  return ReportFromWorker(std::move(ws), options);
}

template <typename GView>
ValidationReport ValidateParallelPlan(const GView& g, const RulesetPlan& plan,
                                      const ValidationOptions& options) {
  // Work items: (bucket, chunk of candidates for the bucket's most selective
  // variable — the matcher's own root statistic, so pins land on the
  // variable the search would root at anyway). Pinning one variable
  // partitions the bucket's match space exactly, so any item partition is
  // race-free and deterministic.
  struct WorkItem {
    const PlanBucket* bucket;
    size_t bucket_id;
    VarId pin_var;
    std::vector<NodeId> pins;  // empty = single run without pinning
  };
  std::vector<WorkItem> items;
  size_t chunks_per_bucket = std::max<size_t>(1, 8 * options.num_threads);
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    const PlanBucket& bucket = plan.buckets[b];
    if (bucket.pattern.NumVars() == 0) {
      items.push_back(WorkItem{&bucket, b, 0, {}});  // single empty match
      continue;
    }
    VarId pin_var = MostSelectiveVariable(bucket.pattern, g);
    std::vector<NodeId> candidates = PinCandidates(bucket.pattern, pin_var, g);
    size_t chunk = std::max<size_t>(1, candidates.size() / chunks_per_bucket);
    for (size_t begin = 0; begin < candidates.size(); begin += chunk) {
      size_t end = std::min(candidates.size(), begin + chunk);
      items.push_back(
          WorkItem{&bucket, b, pin_var,
                   std::vector<NodeId>(candidates.begin() + begin,
                                       candidates.begin() + end)});
    }
  }

  return RunParallelScan(items.size(), options,
                         [&](size_t k, WorkerState* ws) {
                           const WorkItem& item = items[k];
                           ScanBucketInto(g, *item.bucket, item.bucket_id,
                                          options, item.pin_var, item.pins,
                                          ws);
                         });
}

// ----- seeded-scan restriction builder --------------------------------------

// Computes the seed-compatible endpoint restrictions of one pattern edge:
// h(pe.src) may be any compatible seed source, h(pe.dst) any compatible seed
// target. Returns false when no seed is compatible (skip the run). This
// over-approximates the per-seed pairing (h(src) and h(dst) may come from
// different seeds when a pre-existing edge connects them), which only widens
// the re-checked region — the caller's set-difference reconciliation absorbs
// it — while amortizing matcher setup across all seeds.
template <typename GView>
bool SeedEndpointRestrictions(const GView& g, const Pattern& q,
                              const Pattern::PEdge& pe,
                              const std::vector<EdgeTriple>& seeds,
                              std::vector<NodeId>* srcs,
                              std::vector<NodeId>* dsts) {
  srcs->clear();
  dsts->clear();
  for (const EdgeTriple& seed : seeds) {
    if (!LabelMatches(pe.label, seed.label)) continue;
    if (!LabelMatches(q.label(pe.src), g.label(seed.src))) continue;
    if (!LabelMatches(q.label(pe.dst), g.label(seed.dst))) continue;
    if (pe.src == pe.dst && seed.src != seed.dst) continue;
    srcs->push_back(seed.src);
    dsts->push_back(seed.dst);
  }
  if (srcs->empty()) return false;
  auto sort_unique = [](std::vector<NodeId>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  sort_unique(srcs);
  sort_unique(dsts);
  return true;
}

}  // namespace

// ----- public API -----------------------------------------------------------

namespace {

// Freezing pays one O(|V| + |E| log d) compilation pass before any
// matching happens. On large graphs the CSR scan repays it many times over;
// on tiny ones (unit-test fixtures, the small scenario instances) the freeze
// alone can exceed the whole enumeration. Freezing kicks in above this
// |V| + |E| size — below it the snapshot could not plausibly amortize
// within one call, and callers who freeze once and validate many times hold
// a FrozenGraph themselves (that overload never re-freezes).
constexpr size_t kFreezeSizeCutoff = 4096;

bool ShouldFreeze(const Graph& g, const ValidationOptions& options) {
  const ExecutionPolicy& policy = options.policy;
  if (policy.snapshot == SnapshotMode::kNever) return false;
  // An explicit leapfrog requirement always freezes: the k-way intersection
  // only engages on the CSR's sorted columnar spans, so honoring the policy
  // on a tiny graph beats amortizing the freeze.
  if (policy.join == JoinStrategy::kLeapfrog) return true;
  return g.Size() >= kFreezeSizeCutoff;
}

// RulesetPlan::Compile (in the policy's plan shape) under the "PlanCompile"
// span, with plan-shape metrics and the profiler's compile wall time.
RulesetPlan CompileWithObs(const std::vector<Ged>& sigma,
                           const ValidationOptions& options) {
  ScopedSpan span(options.obs.Trace(), "PlanCompile");
  ProfileCollector* profiler = options.obs.Profiler();
  int64_t start_ns = profiler == nullptr ? 0 : MonotonicNowNs();
  RulesetPlan plan = RulesetPlan::Compile(sigma, options.policy.plan);
  if (MetricsRegistry* metrics = options.obs.Metrics()) {
    metrics->Inc(EngineMetric::kPlanCompiles);
    metrics->Inc(EngineMetric::kPlanBuckets, plan.buckets.size());
    metrics->Inc(EngineMetric::kPlanRules, plan.num_rules);
  }
  if (profiler != nullptr) {
    profiler->AddPlanCompileNs(MonotonicNowNs() - start_ns);
  }
  return plan;
}

// Dispatch bodies of the public entries, without the run-level "Validate"
// span — the public overloads chain (Graph → FrozenGraph, Validate →
// ValidateWithPlan), so the span and run metrics are opened exactly once at
// the outermost public call and the chain runs through these.
template <typename GView>
ValidationReport ValidateWithPlanNoObs(const GView& g, const RulesetPlan& plan,
                                       const ValidationOptions& options) {
  if (options.num_threads <= 1) return ValidateSerialPlan(g, plan, options);
  return ValidateParallelPlan(g, plan, options);
}

template <typename GView>
ValidationReport ValidateNoObs(const GView& g, const std::vector<Ged>& sigma,
                               const ValidationOptions& options) {
  return ValidateWithPlanNoObs(g, CompileWithObs(sigma, options), options);
}

// Run-level observability of one public Validate / ValidateWithPlan call:
// the "Validate" trace span, the validate.* run counters, the graph-size
// gauges, and the wall-time histogram. Observe(report) flushes the report's
// totals before the scope closes.
class ValidateObsScope {
 public:
  ValidateObsScope(const ValidationOptions& options, size_t nodes,
                   size_t edges)
      : metrics_(options.obs.Metrics()),
        span_(options.obs.Trace(), "Validate"),
        lat_(options.obs.Metrics(), EngineMetric::kValidateWallNs) {
    if (metrics_ != nullptr) {
      metrics_->Inc(EngineMetric::kValidateRuns);
      metrics_->Set(EngineMetric::kGraphNodes, nodes);
      metrics_->Set(EngineMetric::kGraphEdges, edges);
    }
  }

  void Observe(const ValidationReport& report) {
    if (metrics_ == nullptr) return;
    metrics_->Inc(EngineMetric::kValidateMatchesChecked,
                  report.matches_checked);
    metrics_->Inc(EngineMetric::kValidateViolations,
                  report.violations.size());
    metrics_->Inc(EngineMetric::kValidateAbortedGeds,
                  report.aborted_geds.size());
  }

 private:
  MetricsRegistry* metrics_;
  ScopedSpan span_;
  ScopedLatency lat_;
};

// One public Validate / ValidateWithPlan call: checks options.policy for
// full validation (the pre-frozen and overlay backends already scan a CSR,
// so policy.snapshot is moot there), then runs `run` under the run-level
// observability scope. A rejected policy scans nothing.
template <typename GView, typename Run>
ValidationReport PublicEntry(const GView& g, const ValidationOptions& options,
                             const Run& run) {
  ExecutionPolicy policy = options.policy;
  if constexpr (!std::is_same_v<GView, Graph>) {
    policy.snapshot = SnapshotMode::kAuto;
  }
  Status status =
      ValidateExecutionPolicy(policy, ExecutionSurface::kValidation);
  if (!status.ok()) {
    ValidationReport rejected;
    rejected.satisfied = false;
    rejected.status = std::move(status);
    return rejected;
  }
  ValidateObsScope scope(options, g.NumNodes(), g.NumEdges());
  ValidationReport report = run();
  scope.Observe(report);
  return report;
}

}  // namespace

ValidationReport Validate(const Graph& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options) {
  return PublicEntry(g, options, [&] {
    if (!ShouldFreeze(g, options)) return ValidateNoObs(g, sigma, options);
    // Freeze once; serial and parallel workers all scan the CSR arrays.
    FrozenGraph frozen = FrozenGraph::Freeze(g, options.obs);
    return ValidateNoObs(frozen, sigma, options);
  });
}

ValidationReport Validate(const FrozenGraph& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options) {
  return PublicEntry(g, options,
                     [&] { return ValidateNoObs(g, sigma, options); });
}

ValidationReport ValidateWithPlan(const Graph& g, const RulesetPlan& plan,
                                  const ValidationOptions& options) {
  return PublicEntry(g, options, [&] {
    if (!ShouldFreeze(g, options)) {
      return ValidateWithPlanNoObs(g, plan, options);
    }
    FrozenGraph frozen = FrozenGraph::Freeze(g, options.obs);
    return ValidateWithPlanNoObs(frozen, plan, options);
  });
}

ValidationReport ValidateWithPlan(const FrozenGraph& g,
                                  const RulesetPlan& plan,
                                  const ValidationOptions& options) {
  return PublicEntry(g, options,
                     [&] { return ValidateWithPlanNoObs(g, plan, options); });
}

// Overlay overloads: the base is already CSR, so there is no ShouldFreeze
// question — scan the overlay directly.
ValidationReport Validate(const OverlayView& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options) {
  return PublicEntry(g, options,
                     [&] { return ValidateNoObs(g, sigma, options); });
}

ValidationReport ValidateWithPlan(const OverlayView& g,
                                  const RulesetPlan& plan,
                                  const ValidationOptions& options) {
  return PublicEntry(g, options,
                     [&] { return ValidateWithPlanNoObs(g, plan, options); });
}

void SortViolationList(std::vector<Violation>* violations) {
  std::sort(violations->begin(), violations->end(), ViolationLess);
}

void TruncateViolationsPerGed(std::vector<Violation>* violations,
                              uint64_t cap) {
  if (cap == 0 || violations->empty()) return;
  std::vector<Violation> kept;
  kept.reserve(violations->size());
  size_t run = 0;
  for (size_t i = 0; i < violations->size(); ++i) {
    if (i > 0 && (*violations)[i].ged_index != (*violations)[i - 1].ged_index) {
      run = 0;
    }
    if (run < cap) kept.push_back(std::move((*violations)[i]));
    ++run;
  }
  *violations = std::move(kept);
}

size_t EraseViolationsTouching(std::vector<Violation>* violations,
                               const std::vector<NodeId>& touched) {
  auto binds_touched = [&](const Violation& v) {
    for (NodeId n : v.match) {
      if (std::binary_search(touched.begin(), touched.end(), n)) return true;
    }
    return false;
  };
  size_t before = violations->size();
  violations->erase(
      std::remove_if(violations->begin(), violations->end(), binds_touched),
      violations->end());
  return before - violations->size();
}

void MergeViolations(std::vector<Violation>* violations,
                     std::vector<Violation> fresh) {
  size_t mid = violations->size();
  violations->insert(violations->end(),
                     std::make_move_iterator(fresh.begin()),
                     std::make_move_iterator(fresh.end()));
  std::inplace_merge(violations->begin(), violations->begin() + mid,
                     violations->end(), ViolationLess);
}

namespace {

// The touching and edge-seeded scans, templated over the read backend —
// shared verbatim by the mutable-Graph overloads (commit_backend=kMutable)
// and the OverlayView overloads the incremental validator serves commits
// through.

template <typename GView>
ValidationReport ValidateTouchingWithPlanT(
    const GView& g, const RulesetPlan& plan,
    const std::vector<NodeId>& touched, const ValidationOptions& options) {
  ValidationReport report;
  if (touched.empty()) return report;

  if (options.num_threads <= 1) {
    WorkerState ws;
    for (size_t b = 0; b < plan.buckets.size(); ++b) {
      const PlanBucket& bucket = plan.buckets[b];
      for (VarId x = 0; x < bucket.pattern.NumVars(); ++x) {
        ScanBucketTouching(g, bucket, b, options, x, touched, touched, &ws);
      }
    }
    return ReportFromWorker(std::move(ws), options);
  }

  // Parallel: one work item per (bucket, pin variable, touched-node chunk).
  struct WorkItem {
    const PlanBucket* bucket;
    size_t bucket_id;
    VarId var;
    std::vector<NodeId> pins;
  };
  std::vector<WorkItem> items;
  size_t chunk = std::max<size_t>(
      1, touched.size() / std::max<size_t>(1, 4 * options.num_threads));
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    const PlanBucket& bucket = plan.buckets[b];
    for (VarId x = 0; x < bucket.pattern.NumVars(); ++x) {
      for (size_t begin = 0; begin < touched.size(); begin += chunk) {
        size_t end = std::min(touched.size(), begin + chunk);
        items.push_back(WorkItem{
            &bucket, b, x,
            std::vector<NodeId>(touched.begin() + begin,
                                touched.begin() + end)});
      }
    }
  }

  return RunParallelScan(
      items.size(), options, [&](size_t k, WorkerState* ws) {
        const WorkItem& item = items[k];
        ScanBucketTouching(g, *item.bucket, item.bucket_id, options, item.var,
                           item.pins, touched, ws);
      });
}

template <typename GView>
std::vector<Violation> FindViolationsSeededByEdgesWithPlanT(
    const GView& g, const RulesetPlan& plan,
    const std::vector<EdgeTriple>& seeds, const ValidationOptions& options,
    uint64_t* checked) {
  WorkerState ws;
  MatchOptions base = BaseMatchOptions(options);
  // A truncated seeded re-scan would break the set-difference reconciliation
  // that keeps incremental maintenance exact — the step budget never applies
  // here.
  base.max_steps = 0;
  std::vector<NodeId> srcs, dsts;
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    const PlanBucket& bucket = plan.buckets[b];
    const Pattern& q = bucket.pattern;
    for (const Pattern::PEdge& pe : q.edges()) {
      if (!SeedEndpointRestrictions(g, q, pe, seeds, &srcs, &dsts)) continue;
      MatchOptions mopts = base;
      mopts.restricted = {{pe.src, srcs}, {pe.dst, dsts}};
      ScanObs obs(options, b, &mopts);
      size_t viol_start = ws.violations.size();
      MatchStats stats =
          ScanBucket(g, bucket, mopts, &ws.checked,
                     [&](size_t ged_index, const Match& rule_match) {
                       ws.violations.push_back(Violation{ged_index, rule_match});
                       return true;
                     });
      AccountBucketScan(bucket, b, options.semantics, stats, &ws, viol_start,
                        obs.profiler());
      obs.Finish();
    }
  }
  *checked += ws.checked;
  std::vector<Violation> out = std::move(ws.violations);
  SortViolationList(&out);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

ValidationReport ValidateTouchingWithPlan(
    const Graph& g, const RulesetPlan& plan,
    const std::vector<NodeId>& touched, const ValidationOptions& options) {
  return ValidateTouchingWithPlanT(g, plan, touched, options);
}

ValidationReport ValidateTouchingWithPlan(
    const OverlayView& g, const RulesetPlan& plan,
    const std::vector<NodeId>& touched, const ValidationOptions& options) {
  return ValidateTouchingWithPlanT(g, plan, touched, options);
}

std::vector<Violation> FindViolationsSeededByEdgesWithPlan(
    const Graph& g, const RulesetPlan& plan,
    const std::vector<EdgeTriple>& seeds, const ValidationOptions& options,
    uint64_t* checked) {
  return FindViolationsSeededByEdgesWithPlanT(g, plan, seeds, options, checked);
}

std::vector<Violation> FindViolationsSeededByEdgesWithPlan(
    const OverlayView& g, const RulesetPlan& plan,
    const std::vector<EdgeTriple>& seeds, const ValidationOptions& options,
    uint64_t* checked) {
  return FindViolationsSeededByEdgesWithPlanT(g, plan, seeds, options, checked);
}

}  // namespace ged
