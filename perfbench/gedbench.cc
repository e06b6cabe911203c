// gedbench: the end-to-end benchmark of gedlib, with a per-layer split.
//
//   gedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --dir <directory for durable state>
//
// Workloads (perfbench/README.md says why each was chosen):
//   kb_ingest       closed-loop Commit stream into the Example 1 knowledge
//                   base, WAL fsync every 32 commits, checkpoints, then a
//                   timed Recover();
//   er_ingest       closed-loop Commit stream into the music base under the
//                   GKeys, 4 threads, durability off;
//   dense_validate  repeated full Validate of the dense community graph;
//   er_chase        repeated Chase of a small music base with duplicates.
//
// The seed drives every generator; the library sees only the generated
// graphs and deltas. --trace 0 measures the end-to-end metrics with
// observability off. --trace 1 runs the same inputs with the library's
// metrics registry and tracer attached and prints the per-layer metrics,
// built from the library's own spans and counters plus this file's timers
// around public calls; it alternates untraced and traced repetitions of the
// same inputs to measure the tracing overhead.
//
// Every output is checked (untimed). The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the line before it
// stamps the host, the build and the sample counts.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "chase/chase.h"
#include "gen/scenarios.h"
#include "graph/frozen.h"
#include "graph/io.h"
#include "incr/delta.h"
#include "incr/incremental.h"
#include "incr/wal.h"
#include "match/kernels/registry.h"
#include "obs/obs.h"
#include "plan/plan.h"
#include "reason/validation.h"

namespace {

using namespace ged;
namespace fs = std::filesystem;

// ----- sizes ----------------------------------------------------------------
//
// One ingest round seeds a fresh validator and streams a fixed number of
// commits into it, so every round sees the same graph-size trajectory and a
// run's per-commit distribution does not depend on how long it ran.

constexpr size_t kKbProducts = 6400;
constexpr size_t kKbDeltaProducts = 128;  // 256 nodes, 128 edges, 512 attrs
constexpr size_t kKbCommitsPerRound = 1500;

constexpr size_t kErArtists = 1000;
constexpr size_t kErDeltaAlbums = 4;  // one in four a duplicate
constexpr size_t kErCommitsPerRound = 500;
constexpr unsigned kErThreads = 4;

constexpr size_t kDenseMembers = 8192;
constexpr unsigned kDenseThreads = 4;

constexpr size_t kChaseArtists = 100;

// setup_s is the median of repeated set-ups, spread over the run: at least
// kSetupMinRepeats before the first timed op, then more between the timed
// ops until set-ups have taken kSetupShare of the elapsed run. Host
// interference comes in phases of seconds, so a burst of set-ups at one
// instant would sample only one phase.
constexpr size_t kSetupMinRepeats = 5;
constexpr double kSetupShare = 0.05;

// ----- small helpers --------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

// The i-th input seed of a run: every round or instance draws fresh inputs,
// so a run samples the workload's input distribution, not one graph.
uint64_t SubSeed(uint64_t seed, uint64_t i) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (i + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

bool SameViolations(const ValidationReport& a, const ValidationReport& b) {
  return a.satisfied == b.satisfied && a.violations == b.violations;
}

// ----- host stamp -----------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
  s = s.c_str();
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
#else
  return "unknown";
#endif
}

int UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string HostJson() {
  return std::string("{\"nproc\":") + std::to_string(UsableCpus()) +
         ",\"cpu\":" + JsonStr(CpuModel()) +
         ",\"kernel_backend\":" + JsonStr(ResolveKernel().name) +
         ",\"compiler\":" + JsonStr(GEDBENCH_COMPILER) +
         ",\"build_type\":" + JsonStr(GEDBENCH_BUILD_TYPE) + "}";
}

// ----- run outcome ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, double> samples;  // sample counts, for the stamp

  void Check(bool ok, const char* what) {
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "gedbench: check failed: %s\n", what);
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

class SetupSampler {
 public:
  explicit SetupSampler(std::function<void()> setup)
      : setup_(std::move(setup)), start_ns_(NowNs()) {}

  // Adds a set-up the caller timed itself.
  void Record(double seconds) {
    samples_.push_back(seconds);
    spent_s_ += seconds;
  }
  // Runs set-ups until the sample and time targets above are met.
  void TopUp() {
    while (samples_.size() < kSetupMinRepeats ||
           spent_s_ < kSetupShare * static_cast<double>(NowNs() - start_ns_) *
                          1e-9) {
      int64_t t0 = NowNs();
      setup_();
      Record(static_cast<double>(NowNs() - t0) * 1e-9);
    }
  }
  double MedianSeconds(Outcome* out) const {
    out->samples["setups"] = static_cast<double>(samples_.size());
    return Median(samples_);
  }

 private:
  std::function<void()> setup_;
  int64_t start_ns_;
  std::vector<double> samples_;
  double spent_s_ = 0;
};

// ----- traced-run bookkeeping ------------------------------------------------

// A metrics registry and tracer wired into an enabled ObsOptions (no
// profiler, recorder or logger: only what the split reads).
struct Obs {
  MetricsRegistry metrics;
  Tracer tracer;
  ObsOptions Options() {
    ObsOptions o;
    o.enabled = true;
    o.metrics = &metrics;
    o.tracer = &tracer;
    return o;
  }
};

uint64_t Counter(const MetricsSnapshot& s, EngineMetric m) {
  return s.metrics[static_cast<size_t>(m)].value;
}

// Match-layer counters accumulated between two registry snapshots.
struct MatchCounts {
  double steps = 0, candidates = 0, matches = 0, lf_rounds = 0, lf_seeks = 0;
  void AddDiff(const MetricsSnapshot& a, const MetricsSnapshot& b) {
    auto d = [&](EngineMetric m) {
      return static_cast<double>(Counter(b, m) - Counter(a, m));
    };
    steps += d(EngineMetric::kMatchSteps);
    candidates += d(EngineMetric::kMatchCandidates);
    matches += d(EngineMetric::kMatchMatches);
    lf_rounds += d(EngineMetric::kMatchLfRounds);
    lf_seeks += d(EngineMetric::kMatchLfSeeks);
  }
  MatchCounts& operator+=(const MatchCounts& o) {
    steps += o.steps;
    candidates += o.candidates;
    matches += o.matches;
    lf_rounds += o.lf_rounds;
    lf_seeks += o.lf_seeks;
    return *this;
  }
};

// Span arithmetic over one tracer's merged events, restricted to windows
// of tracer time ([begin, end) on span start).
class Spans {
 public:
  explicit Spans(const Tracer& t) : events_(t.Merged()) {}

  // Sum and count of spans named `name` starting inside `w`.
  std::pair<double, double> SumCount(const char* name,
                                     std::pair<int64_t, int64_t> w) const {
    double sum = 0, n = 0;
    for (const TraceEvent& e : events_) {
      if (e.name == name && In(e, w)) {
        sum += static_cast<double>(e.dur_ns);
        ++n;
      }
    }
    return {sum, n};
  }
  double Sum(const char* name, std::pair<int64_t, int64_t> w) const {
    return SumCount(name, w).first;
  }

  // Total time of `parent` spans not covered by their direct children.
  double SelfTime(const char* parent, std::pair<int64_t, int64_t> w) const {
    double self = 0;
    // Merged() orders parents before their children on each thread.
    const TraceEvent* open = nullptr;
    for (const TraceEvent& e : events_) {
      if (e.name == parent && In(e, w)) {
        open = &e;
        self += static_cast<double>(e.dur_ns);
      } else if (open != nullptr && e.tid == open->tid &&
                 e.depth == open->depth + 1 && e.start_ns >= open->start_ns &&
                 e.start_ns < open->start_ns + open->dur_ns) {
        self -= static_cast<double>(e.dur_ns);
      }
    }
    return self;
  }

  // Wall time during which at least one `name` span was open (any thread).
  double UnionTime(const char* name, std::pair<int64_t, int64_t> w) const {
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const TraceEvent& e : events_) {
      if (e.name == name && In(e, w)) {
        iv.emplace_back(e.start_ns, e.start_ns + e.dur_ns);
      }
    }
    std::sort(iv.begin(), iv.end());
    double total = 0;
    int64_t cur_b = 0, cur_e = -1;
    for (auto [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) total += static_cast<double>(cur_e - cur_b);
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) total += static_cast<double>(cur_e - cur_b);
    return total;
  }

 private:
  static bool In(const TraceEvent& e, std::pair<int64_t, int64_t> w) {
    return e.start_ns >= w.first && e.start_ns < w.second;
  }
  std::vector<TraceEvent> events_;
};

// The per-layer metric catalog: every traced run prints all of them, with 0
// for layers the workload does not run.
const std::vector<std::pair<const char*, const char*>>& LayerCatalog() {
  static const std::vector<std::pair<const char*, const char*>> kCatalog = {
      {"op_mean_ms", "ms"},
      {"op_p50_ms", "ms"},
      {"op_p99_ms", "ms"},
      {"op_samples", "count"},
      {"recover_s", "s"},
      {"incr.delta_build_ns", "ns"},
      {"incr.commit_unspanned_ns", "ns"},
      {"incr.commit_self_ns", "ns"},
      {"incr.seed_touching_ns", "ns"},
      {"incr.seed_edges_ns", "ns"},
      {"incr.reconcile_ns", "ns"},
      {"incr.refreeze_adopt_ns", "ns"},
      {"incr.refreezes_adopted", "count"},
      {"incr.refreezes_failed", "count"},
      {"incr.refreeze_bg_ns", "ns"},
      {"incr.touched_per_commit", "count"},
      {"incr.matches_checked_per_commit", "count"},
      {"incr.wal_bytes_per_commit", "B"},
      {"incr.wal_fsyncs_per_commit", "count"},
      {"graph.ckpt_writes", "count"},
      {"graph.ckpt_bytes_last", "B"},
      {"incr.recover_ckpt_load_ns", "ns"},
      {"incr.recover_wal_replay_ns", "ns"},
      {"incr.recover_validate_ns", "ns"},
      {"incr.recover_records_replayed", "count"},
      {"graph.freeze_ns", "ns"},
      {"graph.freeze_indexes_ns", "ns"},
      {"graph.freeze_adjacency_ns", "ns"},
      {"graph.overlay_delta_weight_max", "count"},
      {"plan.compile_ns", "ns"},
      {"plan.buckets", "count"},
      {"reason.match_ns", "ns"},
      {"reason.emit_ns", "ns"},
      {"reason.worker_busy_ratio", "ratio"},
      {"match.steps", "count"},
      {"match.candidates", "count"},
      {"match.matches", "count"},
      {"match.lf_rounds", "count"},
      {"match.lf_seeks", "count"},
      {"match.yield", "ratio"},
      {"chase.steps", "count"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"unattributed_ns", "ns"},
  };
  return kCatalog;
}

void EmitLayers(const std::map<std::string, double>& layers, Outcome* out) {
  for (const auto& [name, unit] : LayerCatalog()) {
    auto it = layers.find(name);
    out->Add(name, it == layers.end() ? 0.0 : it->second, unit);
  }
}

// A block of consecutive timed ops: one ingest round, one validation or one
// chase.
struct Block {
  double op_ms = 0;        // median op wall time in the block
  double elems_per_s = 0;  // elements processed per second of block wall time
};

// Which block statistic a workload reports (perfbench/README.md, "Noise").
// Other tenants slow the host in phases of seconds. An ingest round spans
// seconds and a run holds only a few of them, so the median round is
// steady while the fastest of so few is not. A validation or chase is one
// short op and a run holds tens to hundreds of them; interference only ever
// adds time, so the fastest is steady while their median jumps between
// phases.
enum class Pick { kMedianBlock, kFastestBlock };

// The end-to-end metrics (observability off), from the run's blocks.
void AddEndToEnd(double setup_s, const std::vector<Block>& blocks, Pick pick,
                 Outcome* out) {
  std::vector<double> op_ms, rates;
  for (const Block& b : blocks) {
    op_ms.push_back(b.op_ms);
    rates.push_back(b.elems_per_s);
  }
  double op = 0, rate = 0;
  if (pick == Pick::kMedianBlock) {
    op = Median(op_ms);
    rate = Median(rates);
  } else {
    op = *std::min_element(op_ms.begin(), op_ms.end());
    rate = *std::max_element(rates.begin(), rates.end());
  }
  out->Add("setup_s", setup_s, "s");
  out->Add("op_ms", op, "ms");
  out->Add("elems_per_s", rate, "1/s");
  out->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

// Latency mean and quantiles of the untraced ops of a traced run.
void AddOpLayers(const std::vector<double>& op_ms,
                 std::map<std::string, double>* layers) {
  (*layers)["op_mean_ms"] =
      Ratio(Sum(op_ms), static_cast<double>(op_ms.size()));
  (*layers)["op_p50_ms"] = Median(op_ms);
  (*layers)["op_p99_ms"] = Quantile(op_ms, 0.99);
  (*layers)["op_samples"] = static_cast<double>(op_ms.size());
}

void AddMatchLayers(const MatchCounts& m, double ops,
                    std::map<std::string, double>* layers) {
  (*layers)["match.steps"] = Ratio(m.steps, ops);
  (*layers)["match.candidates"] = Ratio(m.candidates, ops);
  (*layers)["match.matches"] = Ratio(m.matches, ops);
  (*layers)["match.lf_rounds"] = Ratio(m.lf_rounds, ops);
  (*layers)["match.lf_seeks"] = Ratio(m.lf_seeks, ops);
  (*layers)["match.yield"] = Ratio(m.matches, m.candidates);
}

// ----- generators -----------------------------------------------------------

KbParams KbAtScale(size_t num_products, uint64_t seed) {
  KbParams p;
  p.num_products = num_products;
  p.num_countries = num_products / 4;
  p.num_species = num_products / 4;
  p.num_families = num_products / 4;
  p.seed = static_cast<unsigned>(seed);
  return p;
}

// `kKbDeltaProducts` fresh products with creators (one video game in eight
// has a wrong-creator φ1 violation), every node with two attributes.
void FillKbDelta(const IncrementalValidator&, std::mt19937_64* rng,
                 GraphDelta* d) {
  static const Label kProduct = Sym("product"), kPerson = Sym("person"),
                     kCreate = Sym("create");
  static const AttrId kType = Sym("type"), kTitle = Sym("title"),
                      kName = Sym("name");
  for (size_t i = 0; i < kKbDeltaProducts; ++i) {
    bool game = (*rng)() % 2 == 0;
    bool bad = game && (*rng)() % 8 == 0;
    NodeId product = d->AddNode(kProduct);
    d->SetAttr(product, kType, game ? Value("video game") : Value("book"));
    d->SetAttr(product, kTitle, Value("streamed product"));
    NodeId person = d->AddNode(kPerson);
    d->SetAttr(person, kType,
               bad ? Value("psychologist")
                   : (game ? Value("programmer") : Value("writer")));
    d->SetAttr(person, kName, Value("streamed person"));
    d->AddEdge(person, kCreate, product);
  }
}

// `kErDeltaAlbums` new albums by existing artists; one in four duplicates an
// existing album's title, release and artist (the ψ1/ψ2 shapes).
void FillMusicDelta(const IncrementalValidator& v, std::mt19937_64* rng,
                    GraphDelta* d) {
  static const Label kArtist = Sym("artist"), kAlbum = Sym("album"),
                     kBy = Sym("by");
  static const AttrId kTitle = Sym("title"), kRelease = Sym("release");
  const Graph& g = v.graph();
  const std::vector<NodeId>& artists = g.NodesWithLabel(kArtist);
  const std::vector<NodeId>& albums = g.NodesWithLabel(kAlbum);
  for (size_t i = 0; i < kErDeltaAlbums; ++i) {
    NodeId album = d->AddNode(kAlbum);
    if ((*rng)() % 4 == 0) {
      NodeId orig = albums[(*rng)() % albums.size()];
      d->SetAttr(album, kTitle, *g.attr(orig, kTitle));
      if (auto release = g.attr(orig, kRelease)) {
        d->SetAttr(album, kRelease, *release);
      }
      d->AddEdge(album, kBy, g.out(orig)[0].other);
    } else {
      d->SetAttr(album, kTitle, Value("streamed_" + std::to_string((*rng)())));
      d->SetAttr(album, kRelease,
                 Value(static_cast<int64_t>(1970 + (*rng)() % 50)));
      d->AddEdge(album, kBy, artists[(*rng)() % artists.size()]);
    }
  }
}

MusicParams ErIngestMusic(uint64_t seed) {
  MusicParams p;
  p.num_artists = kErArtists;
  p.seed = static_cast<unsigned>(seed);
  return p;
}

MusicParams ErChaseMusic(uint64_t seed) {
  MusicParams p;
  p.num_artists = kChaseArtists;
  p.dup_albums = kChaseArtists / 3;
  p.dup_artists = kChaseArtists / 5;
  p.seed = static_cast<unsigned>(seed);
  return p;
}

// ----- ingest workloads (kb_ingest, er_ingest) -------------------------------

struct IngestSpec {
  bool durable = false;
  DurabilityOptions durability;  // its dir is set per round
  unsigned threads = 1;
  size_t commits_per_round = 0;
  std::function<Graph(uint64_t seed)> make_base;
  std::function<std::vector<Ged>()> make_sigma;
  std::function<void(const IncrementalValidator&, std::mt19937_64*,
                     GraphDelta*)>
      fill_delta;
};

// What one round measured. Layer sums are totals over the round.
struct IngestRound {
  std::vector<double> commit_ms;
  double loop_ns = 0;
  double elems = 0;
  double recover_s = 0;
  std::map<std::string, double> sums;  // traced rounds only
  MatchCounts match;
};

std::string CheckpointPathNewest(const std::string& dir, uint64_t* epoch) {
  std::vector<CheckpointInfo> ck = ListCheckpoints(dir);
  if (ck.empty()) return {};
  *epoch = ck.back().epoch;
  return dir + "/" + ck.back().name;
}

// One round on the inputs of `seed`: the base graph and the delta stream.
IngestRound RunIngestRound(const IngestSpec& spec, uint64_t seed,
                           const std::string& dir, bool traced, Outcome* out) {
  IngestRound r;
  std::unique_ptr<Obs> obs = traced ? std::make_unique<Obs>() : nullptr;
  ValidationOptions opts;
  opts.num_threads = spec.threads;
  if (obs) opts.obs = obs->Options();
  if (spec.durable) {
    fs::remove_all(dir);
    opts.durability = spec.durability;
    opts.durability.dir = dir;
  }
  std::vector<Ged> sigma = spec.make_sigma();

  auto created =
      IncrementalValidator::Create(spec.make_base(seed), sigma, opts);
  ++out->attempted;
  out->Check(created.ok(), "IncrementalValidator::Create");
  if (!created.ok()) return r;
  std::unique_ptr<IncrementalValidator> v = std::move(created.value());

  std::mt19937_64 rng(seed);
  MetricsSnapshot snap0;
  int64_t tr0 = 0;
  if (obs) {
    snap0 = obs->metrics.Snapshot();
    tr0 = obs->tracer.NowNs();
  }
  double build_ns = 0, commit_ns = 0, weight_max = 0;
  r.commit_ms.reserve(spec.commits_per_round);
  int64_t loop_start = NowNs();
  for (size_t i = 0; i < spec.commits_per_round; ++i) {
    int64_t a = NowNs();
    GraphDelta d = v->NewDelta();
    spec.fill_delta(*v, &rng, &d);
    int64_t b = NowNs();
    Result<GraphDelta::Applied> applied = v->Commit(d);
    int64_t c = NowNs();
    ++out->attempted;
    out->Check(applied.ok(), "Commit");
    build_ns += static_cast<double>(b - a);
    commit_ns += static_cast<double>(c - b);
    r.commit_ms.push_back(static_cast<double>(c - b) * 1e-6);
    r.elems += static_cast<double>(d.NumNewNodes() + d.NumNewEdges() +
                                   d.NumAttrOps());
    if (obs) {
      weight_max = std::max(weight_max,
                            static_cast<double>(v->overlay().DeltaWeight()));
    }
  }
  r.loop_ns = static_cast<double>(NowNs() - loop_start);
  std::pair<int64_t, int64_t> loop_window{tr0, obs ? obs->tracer.NowNs() : 0};
  if (obs) r.match.AddDiff(snap0, obs->metrics.Snapshot());

  const IncrementalValidator::CommitStats& cs = v->last_commit();
  if (obs) {
    auto& s = r.sums;
    s["build_ns"] = build_ns;
    s["commit_ns"] = commit_ns;
    s["refreezes_adopted"] = static_cast<double>(cs.refreezes_adopted);
    s["refreezes_failed"] = static_cast<double>(cs.refreezes_failed);
    s["touched"] = static_cast<double>(cs.total_touched);
    s["matches_checked"] = static_cast<double>(cs.total_matches_checked);
    s["weight_max"] = weight_max;
    if (const WalWriter* wal = v->wal()) {
      s["wal_bytes"] = static_cast<double>(wal->stats().bytes);
      s["wal_fsyncs"] = static_cast<double>(wal->stats().fsyncs);
    }
  }

  // Output check: the maintained report equals a from-scratch validation.
  ++out->attempted;
  out->Check(SameViolations(v->report(), v->RevalidateFull()),
             "live report == RevalidateFull()");

  std::pair<int64_t, int64_t> recover_window{0, 0};
  if (spec.durable) {
    ValidationReport before = v->report();
    uint64_t epoch = v->commit_epoch();
    v.reset();  // joins any in-flight re-freeze; the checkpoint is final
    if (obs) {
      uint64_t ck_epoch = 0;
      std::string ck = CheckpointPathNewest(dir, &ck_epoch);
      if (!ck.empty()) {
        r.sums["ckpt_bytes_last"] = static_cast<double>(fs::file_size(ck));
      }
    }
    IncrementalValidator::RecoveryStats rs;
    if (obs) recover_window.first = obs->tracer.NowNs();
    {
      int64_t rt0 = NowNs();
      auto recovered = IncrementalValidator::Recover(sigma, opts, &rs);
      r.recover_s = static_cast<double>(NowNs() - rt0) * 1e-9;
      ++out->attempted;
      out->Check(recovered.ok(), "Recover");
      if (recovered.ok()) {
        out->Check(SameViolations(recovered.value()->report(), before),
                   "recovered report == pre-shutdown report");
        out->Check(rs.recovered_epoch == epoch &&
                       epoch == spec.commits_per_round,
                   "recovered_epoch == commits");
      }
    }
    if (obs) {
      recover_window.second = obs->tracer.NowNs();
      r.sums["records_replayed"] =
          static_cast<double>(rs.wal_records_replayed);
      // The two halves Recover() runs before its Validate, timed on the
      // same directory: checkpoint load, then WAL-suffix replay onto it.
      uint64_t ck_epoch = 0;
      std::string ck = CheckpointPathNewest(dir, &ck_epoch);
      Graph g;
      int64_t l0 = NowNs();
      if (!ck.empty()) {
        Result<Checkpoint> loaded = LoadCheckpoint(ck);
        out->Check(loaded.ok(), "LoadCheckpoint");
        if (loaded.ok()) g = std::move(loaded.value().graph);
      }
      int64_t l1 = NowNs();
      Result<WalReplayStats> replay =
          ReplayWal(dir, ck_epoch, [&g](uint64_t, const GraphDelta& delta) {
            Result<GraphDelta::Applied> a = delta.Apply(&g);
            return a.ok() ? Status::OK() : a.status();
          });
      int64_t l2 = NowNs();
      out->Check(replay.ok(), "ReplayWal");
      r.sums["ckpt_load_ns"] = static_cast<double>(l1 - l0);
      r.sums["wal_replay_ns"] = static_cast<double>(l2 - l1);
    }
    fs::remove_all(dir);
  }

  if (obs) {
    // The validator that wrote the checkpoints is gone; the registry kept
    // its count.
    MetricsSnapshot snap = obs->metrics.Snapshot();
    r.sums["ckpt_writes"] =
        static_cast<double>(Counter(snap, EngineMetric::kCheckpointWrites));
    Spans spans(obs->tracer);
    auto& s = r.sums;
    s["commit_span"] = spans.Sum("Commit", loop_window);
    s["commit_self"] = spans.SelfTime("Commit", loop_window);
    s["seed_touching"] = spans.Sum("SeedTouching", loop_window);
    s["seed_edges"] = spans.Sum("SeedEdges", loop_window);
    s["reconcile"] = spans.Sum("Reconcile", loop_window);
    s["refreeze_adopt"] = spans.Sum("RefreezeAdopt", loop_window);
    auto [bg_sum, bg_n] = spans.SumCount("Refreeze", loop_window);
    s["refreeze_bg"] = bg_sum;
    s["refreeze_bg_n"] = bg_n;
    s["recover_validate"] = spans.Sum("Validate", recover_window);
    for (auto w : {loop_window, recover_window}) {
      auto [f_sum, f_n] = spans.SumCount("Freeze", w);
      s["freeze"] += f_sum;
      s["freeze_n"] += f_n;
      s["freeze_indexes"] += spans.Sum("Freeze.Indexes", w);
      s["freeze_adjacency"] += spans.Sum("Freeze.Adjacency", w);
    }
  }
  return r;
}

Outcome RunIngest(const IngestSpec& spec, uint64_t seed, double seconds,
                  bool trace, const std::string& dir) {
  Outcome out;
  std::vector<double> commit_ms, recover_s;
  std::vector<Block> blocks;
  // Traced runs pair each traced round with an untraced round of the same
  // stream, for the overhead ratio and the untraced tail figures.
  double paired_untraced_ns = 0, paired_traced_ns = 0;
  std::map<std::string, double> sums;
  MatchCounts match;
  double traced_commits = 0, traced_rounds = 0;

  // Set-up: generate a base graph and seed a validator on it (one full
  // Validate; on kb_ingest also the WAL open), ready for the first commit.
  // Only untraced runs report it.
  uint64_t probe = 0;
  SetupSampler setup([&] {
    ValidationOptions opts;
    opts.num_threads = spec.threads;
    if (spec.durable) {
      fs::remove_all(dir);
      opts.durability = spec.durability;
      opts.durability.dir = dir;
    }
    auto v = IncrementalValidator::Create(
        spec.make_base(SubSeed(seed, ~probe++)), spec.make_sigma(), opts);
    ++out.attempted;
    out.Check(v.ok(), "IncrementalValidator::Create");
  });
  if (!trace) setup.TopUp();

  int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t round = 0; round < 3 || NowNs() < deadline; ++round) {
    // Traced runs alternate which of the pair goes first.
    const uint64_t input = SubSeed(seed, round);
    IngestRound t;
    if (trace && round % 2 == 1) {
      t = RunIngestRound(spec, input, dir, true, &out);
    }
    IngestRound u = RunIngestRound(spec, input, dir, false, &out);
    commit_ms.insert(commit_ms.end(), u.commit_ms.begin(), u.commit_ms.end());
    if (spec.durable) recover_s.push_back(u.recover_s);
    blocks.push_back({Median(u.commit_ms), Ratio(u.elems, u.loop_ns * 1e-9)});
    if (!trace) {
      setup.TopUp();
      continue;
    }
    if (round % 2 == 0) t = RunIngestRound(spec, input, dir, true, &out);
    paired_untraced_ns += u.loop_ns;
    paired_traced_ns += t.loop_ns;
    for (const auto& [k, val] : t.sums) sums[k] += val;
    match += t.match;
    traced_commits += static_cast<double>(t.commit_ms.size());
    ++traced_rounds;
  }
  out.samples["commits"] = static_cast<double>(commit_ms.size());
  out.samples["recoveries"] = static_cast<double>(recover_s.size());

  if (!trace) {
    fs::remove_all(dir);
    AddEndToEnd(setup.MedianSeconds(&out), blocks, Pick::kMedianBlock, &out);
    return out;
  }

  std::map<std::string, double> L;
  const double n = traced_commits;
  AddOpLayers(commit_ms, &L);
  L["recover_s"] = Median(recover_s);
  L["incr.delta_build_ns"] = Ratio(sums["build_ns"], n);
  L["incr.commit_unspanned_ns"] =
      Ratio(sums["commit_ns"] - sums["commit_span"], n);
  L["incr.commit_self_ns"] = Ratio(sums["commit_self"], n);
  L["incr.seed_touching_ns"] = Ratio(sums["seed_touching"], n);
  L["incr.seed_edges_ns"] = Ratio(sums["seed_edges"], n);
  L["incr.reconcile_ns"] = Ratio(sums["reconcile"], n);
  L["incr.refreeze_adopt_ns"] = Ratio(sums["refreeze_adopt"], n);
  L["incr.refreezes_adopted"] = Ratio(sums["refreezes_adopted"], traced_rounds);
  L["incr.refreezes_failed"] = Ratio(sums["refreezes_failed"], traced_rounds);
  L["incr.refreeze_bg_ns"] = Ratio(sums["refreeze_bg"], sums["refreeze_bg_n"]);
  L["incr.touched_per_commit"] = Ratio(sums["touched"], n);
  L["incr.matches_checked_per_commit"] = Ratio(sums["matches_checked"], n);
  L["incr.wal_bytes_per_commit"] = Ratio(sums["wal_bytes"], n);
  L["incr.wal_fsyncs_per_commit"] = Ratio(sums["wal_fsyncs"], n);
  L["graph.ckpt_writes"] = Ratio(sums["ckpt_writes"], traced_rounds);
  L["graph.ckpt_bytes_last"] = Ratio(sums["ckpt_bytes_last"], traced_rounds);
  L["incr.recover_ckpt_load_ns"] = Ratio(sums["ckpt_load_ns"], traced_rounds);
  L["incr.recover_wal_replay_ns"] =
      Ratio(sums["wal_replay_ns"], traced_rounds);
  L["incr.recover_validate_ns"] =
      Ratio(sums["recover_validate"], traced_rounds);
  L["incr.recover_records_replayed"] =
      Ratio(sums["records_replayed"], traced_rounds);
  L["graph.freeze_ns"] = Ratio(sums["freeze"], sums["freeze_n"]);
  L["graph.freeze_indexes_ns"] =
      Ratio(sums["freeze_indexes"], sums["freeze_n"]);
  L["graph.freeze_adjacency_ns"] =
      Ratio(sums["freeze_adjacency"], sums["freeze_n"]);
  L["graph.overlay_delta_weight_max"] =
      Ratio(sums["weight_max"], traced_rounds);
  AddMatchLayers(match, n, &L);
  L["obs.trace_overhead_ratio"] =
      Ratio(paired_traced_ns, paired_untraced_ns) - 1;
  // Per commit: closed-loop wall minus the named stages (the delta build
  // timed here, and the library's stage spans inside Commit). What is left
  // is Commit's own unspanned work (commit_self + commit_unspanned).
  L["unattributed_ns"] =
      Ratio(paired_traced_ns - sums["build_ns"] - sums["seed_touching"] -
                sums["seed_edges"] - sums["reconcile"] -
                sums["refreeze_adopt"],
            n);
  EmitLayers(L, &out);
  return out;
}

// ----- dense_validate --------------------------------------------------------

Outcome RunDenseValidate(uint64_t seed, double seconds, bool trace) {
  Outcome out;
  DenseParams dp;
  dp.num_members = kDenseMembers;
  dp.seed = static_cast<unsigned>(seed);
  Graph g = GenDenseCommunity(dp).graph;
  // Set-up: generate the graph (the same graph each time).
  SetupSampler setup([&] { GenDenseCommunity(dp); });
  setup.TopUp();
  const std::vector<Ged> sigma = DenseCliqueGeds();
  ValidationOptions opts;
  opts.num_threads = kDenseThreads;

  // Output check, once per run: the compiled plan's report equals the
  // per-rule path's. Every timed report must then equal it.
  ValidationReport reference = Validate(g, sigma, opts);
  {
    ValidationOptions per_rule = opts;
    per_rule.policy.plan = PlanMode::kPerRule;
    ++out.attempted;
    out.Check(SameViolations(reference, Validate(g, sigma, per_rule)),
              "compiled report == per-rule report");
  }
  const double elems = static_cast<double>(g.NumNodes() + g.NumEdges());

  std::vector<double> untraced_ms, traced_ms, with_plan_ms;
  MatchCounts match;
  std::unique_ptr<Obs> obs = trace ? std::make_unique<Obs>() : nullptr;
  std::vector<std::pair<int64_t, int64_t>> validate_windows, plan_windows;
  ValidationOptions traced_opts = opts;
  RulesetPlan plan;
  std::vector<double> compile_ns;
  std::unique_ptr<FrozenGraph> frozen;
  if (obs) {
    traced_opts.obs = obs->Options();
    for (int i = 0; i < 9; ++i) {
      int64_t t0 = NowNs();
      plan = RulesetPlan::Compile(sigma);
      compile_ns.push_back(static_cast<double>(NowNs() - t0));
    }
    frozen = std::make_unique<FrozenGraph>(FrozenGraph::Freeze(g));
  }

  auto timed_validate = [&](const ValidationOptions& o) {
    int64_t t0 = NowNs();
    ValidationReport rep = Validate(g, sigma, o);
    double ms = static_cast<double>(NowNs() - t0) * 1e-6;
    ++out.attempted;
    out.Check(SameViolations(rep, reference), "Validate report");
    return ms;
  };
  auto traced_validate = [&] {
    MetricsSnapshot a = obs->metrics.Snapshot();
    int64_t w0 = obs->tracer.NowNs();
    traced_ms.push_back(timed_validate(traced_opts));
    validate_windows.emplace_back(w0, obs->tracer.NowNs());
    match.AddDiff(a, obs->metrics.Snapshot());
  };

  int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int i = 0; untraced_ms.size() < 3 || NowNs() < deadline; ++i) {
    // Traced runs alternate which of the pair goes first.
    if (obs && i % 2 == 1) traced_validate();
    untraced_ms.push_back(timed_validate(opts));
    setup.TopUp();
    if (!obs) continue;
    if (i % 2 == 0) traced_validate();

    int64_t p0 = obs->tracer.NowNs();
    int64_t t0 = NowNs();
    ValidationReport rep = ValidateWithPlan(*frozen, plan, traced_opts);
    with_plan_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    plan_windows.emplace_back(p0, obs->tracer.NowNs());
    ++out.attempted;
    out.Check(SameViolations(rep, reference), "ValidateWithPlan report");
  }
  out.samples["validates"] = static_cast<double>(untraced_ms.size());

  if (!obs) {
    std::vector<Block> blocks;
    for (double ms : untraced_ms) blocks.push_back({ms, elems / (ms * 1e-3)});
    AddEndToEnd(setup.MedianSeconds(&out), blocks, Pick::kFastestBlock, &out);
    return out;
  }

  Spans spans(obs->tracer);
  double freeze = 0, freeze_n = 0, freeze_idx = 0, freeze_adj = 0;
  double compile_span = 0, emit = 0, match_union = 0;
  for (auto w : validate_windows) {
    auto [f, fn] = spans.SumCount("Freeze", w);
    freeze += f;
    freeze_n += fn;
    freeze_idx += spans.Sum("Freeze.Indexes", w);
    freeze_adj += spans.Sum("Freeze.Adjacency", w);
    compile_span += spans.Sum("PlanCompile", w);
    emit += spans.Sum("ViolationEmit", w);
    match_union += spans.UnionTime("Match", w);
  }
  double busy = 0;
  for (auto w : plan_windows) busy += spans.Sum("Match", w);
  const double n = static_cast<double>(traced_ms.size());

  std::map<std::string, double> L;
  AddOpLayers(untraced_ms, &L);
  L["graph.freeze_ns"] = Ratio(freeze, freeze_n);
  L["graph.freeze_indexes_ns"] = Ratio(freeze_idx, freeze_n);
  L["graph.freeze_adjacency_ns"] = Ratio(freeze_adj, freeze_n);
  L["plan.compile_ns"] = Median(compile_ns);
  L["plan.buckets"] = static_cast<double>(plan.buckets.size());
  L["reason.match_ns"] = Median(with_plan_ms) * 1e6;
  L["reason.emit_ns"] = Ratio(emit, n);
  L["reason.worker_busy_ratio"] =
      Ratio(busy, kDenseThreads * Sum(with_plan_ms) * 1e6);
  AddMatchLayers(match, n, &L);
  L["obs.trace_overhead_ratio"] = Ratio(Sum(traced_ms), Sum(untraced_ms)) - 1;
  // Per Validate: wall minus freeze, plan compile, the matching phase (wall
  // time during which any worker was inside a Match span) and emit.
  L["unattributed_ns"] = Ratio(
      Sum(traced_ms) * 1e6 - freeze - compile_span - match_union - emit, n);
  EmitLayers(L, &out);
  return out;
}

// ----- er_chase -------------------------------------------------------------

Outcome RunErChase(uint64_t seed, double seconds, bool trace) {
  Outcome out;
  // Set-up: generate a music base. Every chase gets a fresh one.
  uint64_t probe = 0;
  SetupSampler setup(
      [&] { GenMusicBase(ErChaseMusic(SubSeed(seed, ~probe++))); });
  setup.TopUp();
  const std::vector<Ged> sigma = MusicKeys();

  std::unique_ptr<Obs> obs = trace ? std::make_unique<Obs>() : nullptr;
  ChaseOptions plain;
  ChaseOptions traced = plain;
  if (obs) traced.obs = obs->Options();

  std::vector<double> untraced_ms, traced_ms;
  std::vector<std::pair<int64_t, int64_t>> windows;
  std::vector<Block> blocks;
  double steps = 0;
  auto timed_chase = [&](const MusicInstance& music, const ChaseOptions& o) {
    int64_t t0 = NowNs();
    ChaseResult res = Chase(music.graph, sigma, nullptr, o);
    double ms = static_cast<double>(NowNs() - t0) * 1e-6;
    ++out.attempted;
    out.Check(res.consistent, "chase consistent");
    out.Check(res.coercion.graph.NumNodes() == music.true_entities,
              "coerced nodes == true entities");
    steps += static_cast<double>(res.num_steps);
    return ms;
  };
  auto traced_chase = [&](const MusicInstance& music) {
    int64_t w0 = obs->tracer.NowNs();
    traced_ms.push_back(timed_chase(music, traced));
    windows.emplace_back(w0, obs->tracer.NowNs());
  };

  int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0; untraced_ms.size() < 3 || NowNs() < deadline; ++i) {
    int64_t g0 = NowNs();
    MusicInstance music = GenMusicBase(ErChaseMusic(SubSeed(seed, i)));
    setup.Record(static_cast<double>(NowNs() - g0) * 1e-9);
    // Traced runs chase each instance twice, alternating which goes first.
    if (obs && i % 2 == 1) traced_chase(music);
    untraced_ms.push_back(timed_chase(music, plain));
    blocks.push_back({untraced_ms.back(),
                      static_cast<double>(music.graph.NumNodes() +
                                          music.graph.NumEdges()) /
                          (untraced_ms.back() * 1e-3)});
    if (obs && i % 2 == 0) traced_chase(music);
    setup.TopUp();
  }
  out.samples["chases"] = static_cast<double>(untraced_ms.size());

  if (!obs) {
    AddEndToEnd(setup.MedianSeconds(&out), blocks, Pick::kFastestBlock, &out);
    return out;
  }

  Spans spans(obs->tracer);
  double chase_span = 0;
  for (auto w : windows) chase_span += spans.Sum("Chase", w);
  const double n = static_cast<double>(traced_ms.size());
  std::map<std::string, double> L;
  AddOpLayers(untraced_ms, &L);
  L["chase.steps"] = Ratio(steps, static_cast<double>(untraced_ms.size()) + n);
  L["obs.trace_overhead_ratio"] = Ratio(Sum(traced_ms), Sum(untraced_ms)) - 1;
  L["unattributed_ns"] = Ratio(Sum(traced_ms) * 1e6 - chase_span, n);
  EmitLayers(L, &out);
  return out;
}

// ----- main -----------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: gedbench --workload kb_ingest|er_ingest|dense_validate|"
               "er_chase --seed N --seconds S --trace 0|1 --dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, dir;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      trace = std::atoi(v.c_str());
    } else if (k == "--dir") {
      dir = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || dir.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  fs::create_directories(dir);

  Outcome out;
  if (workload == "kb_ingest") {
    IngestSpec spec;
    // Checkpoints on, and the WAL fsynced every 32 commits (the default
    // interval): with one fsync per commit the median commit followed the
    // disk's fsync latency and spread 0.19 over five runs, against 0.03.
    spec.durable = true;
    spec.durability.fsync = DurabilityOptions::Fsync::kInterval;
    spec.durability.fsync_interval_commits = 32;
    spec.threads = 1;
    spec.commits_per_round = kKbCommitsPerRound;
    spec.make_base = [](uint64_t s) {
      return GenKnowledgeBase(KbAtScale(kKbProducts, s)).graph;
    };
    spec.make_sigma = Example1Geds;
    spec.fill_delta = FillKbDelta;
    out = RunIngest(spec, seed, seconds, trace == 1, dir + "/kb");
  } else if (workload == "er_ingest") {
    IngestSpec spec;
    spec.threads = kErThreads;
    spec.commits_per_round = kErCommitsPerRound;
    spec.make_base = [](uint64_t s) {
      return GenMusicBase(ErIngestMusic(s)).graph;
    };
    spec.make_sigma = MusicKeys;
    spec.fill_delta = FillMusicDelta;
    out = RunIngest(spec, seed, seconds, trace == 1, dir + "/er");
  } else if (workload == "dense_validate") {
    out = RunDenseValidate(seed, seconds, trace == 1);
  } else if (workload == "er_chase") {
    out = RunErChase(seed, seconds, trace == 1);
  } else {
    return Usage();
  }

  std::string stamp = "{\"workload\":" + JsonStr(workload) +
                      ",\"seed\":" + std::to_string(seed) +
                      ",\"trace\":" + std::to_string(trace) +
                      ",\"host\":" + HostJson() + ",\"failed_ratio\":" +
                      Num(Ratio(static_cast<double>(out.failed),
                                static_cast<double>(out.attempted))) +
                      ",\"samples\":{";
  bool first = true;
  for (const auto& [k, v] : out.samples) {
    stamp += (first ? "" : ",") + JsonStr(k) + ":" + Num(v);
    first = false;
  }
  std::printf("%s}}\n", stamp.c_str());

  std::string line = std::string("{\"correct\":") +
                     (out.failed == 0 ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(out.attempted) +
                     ",\"failed\":" + std::to_string(out.failed) +
                     ",\"metrics\":{";
  first = true;
  for (const Metric& m : out.metrics) {
    line += (first ? "" : ",") + JsonStr(m.name) + ":{\"value\":" +
            Num(m.value) + ",\"unit\":" + JsonStr(m.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
  fs::remove_all(dir);
  return 0;
}
