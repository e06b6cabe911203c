// ExecutionPolicy: the coherent engine-execution options API.
//
// Each execution knob is an enum field whose kAuto/default means "the
// engine decides", which makes the *interactions* between knobs
// expressible: the k-way intersection needs a backend with sorted columnar
// spans, so "require the leapfrog join" is only satisfiable on some
// surfaces, and a forced SIMD backend is inert without the intersection.
// ValidateExecutionPolicy rejects combinations that cannot do what they
// claim with Status::InvalidArgument *before* any work starts — at
// options-validation time, not as a mid-run warning.

#ifndef GEDLIB_REASON_POLICY_H_
#define GEDLIB_REASON_POLICY_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "match/kernels/kernel.h"

namespace ged {

/// How the matcher generates candidates per search variable.
enum class JoinStrategy : uint8_t {
  kAuto = 0,       ///< leapfrog where the backend supports it (default)
  kLeapfrog,       ///< require the worst-case-optimal k-way intersection;
                   ///< invalid where no span-capable backend will serve it
  kPickSmallest,   ///< legacy scan-smallest-list generator (ablation)
};

/// How a ruleset Σ compiles into a plan (plan/plan.h); every shape is
/// evaluated by the same plan executor.
enum class PlanMode : uint8_t {
  kCompiled = 0,  ///< isomorphic rules share a bucket, one walk per shape
  kPerRule,       ///< one bucket per rule over its own premise-unified
                  ///< pattern, no canonicalization (differential/ablation)
};

/// Whether full validation compiles a mutable graph into a FrozenGraph CSR
/// snapshot before scanning.
enum class SnapshotMode : uint8_t {
  kAuto = 0,  ///< freeze above the amortization cutoff, and always when the
              ///< policy requires the leapfrog join (which needs the CSR)
  kNever,     ///< always scan the mutable adjacency (freeze-cost studies)
};

/// Which backend incremental commits re-scan.
enum class CommitBackend : uint8_t {
  kOverlay = 0,  ///< frozen CSR base + delta overlay (serving default)
  kMutable,      ///< scan the mutable graph directly (pre-overlay baseline)
};

/// Where a policy is about to be used; some combinations are only
/// meaningful (or only wrong) on one surface.
enum class ExecutionSurface : uint8_t {
  kValidation,   ///< full Validate / ValidateWithPlan over one graph
  kIncremental,  ///< IncrementalValidator commit maintenance
};

/// The validated execution policy. Default-constructed = engine decides
/// everything (today: compiled plan, leapfrog where possible, snapshot
/// above cutoff, overlay commits, auto-detected kernel backend).
struct ExecutionPolicy {
  JoinStrategy join = JoinStrategy::kAuto;
  /// SIMD intersection backend for the leapfrog join
  /// (match/kernels/registry.h). Non-auto values are validated against the
  /// running binary/host, and are inert — hence rejected — when `join`
  /// disables the intersection path.
  KernelBackend kernel = KernelBackend::kAuto;
  PlanMode plan = PlanMode::kCompiled;
  SnapshotMode snapshot = SnapshotMode::kAuto;
  CommitBackend commit_backend = CommitBackend::kOverlay;

  bool operator==(const ExecutionPolicy&) const = default;
};

/// Crash-safety configuration for the incremental serving path
/// (incr/wal.h, IncrementalValidator). Off by default — an empty `dir`
/// keeps every commit purely in-memory, exactly the pre-durability
/// behavior. With a directory set, every Commit appends the delta to a
/// write-ahead log *before* applying it in memory (a WAL failure returns
/// kUnavailable and leaves the validator untouched), and background
/// re-freezes additionally persist FrozenGraph checkpoints so recovery is
/// checkpoint + WAL-suffix replay instead of full-history replay.
struct DurabilityOptions {
  /// Directory holding WAL segments and checkpoints. Empty = durability
  /// disabled. Created (one level) if missing.
  std::string dir;

  /// When the WAL fsyncs. The trade-off triangle:
  ///   * kEveryCommit — fsync before the commit is acknowledged; a crash
  ///     never loses an acknowledged commit (power-loss safe), at the cost
  ///     of one fsync latency per commit;
  ///   * kInterval — fsync every `fsync_interval_commits` appends; bounds
  ///     loss to the unsynced window on power loss, while a process crash
  ///     alone (the kernel survives) still loses nothing;
  ///   * kNone — never fsync from the hot path; process-crash safe, power-
  ///     loss durability delegated to the OS page cache writeback.
  enum class Fsync : uint8_t { kEveryCommit = 0, kInterval, kNone };
  Fsync fsync = Fsync::kEveryCommit;
  /// Appends per fsync under Fsync::kInterval.
  uint32_t fsync_interval_commits = 32;

  /// WAL segment rotation threshold. Rotation bounds the tail-scan cost of
  /// recovery and lets checkpointing garbage-collect whole segment files.
  uint64_t wal_segment_bytes = 64ull << 20;

  /// Write a checkpoint when a background re-freeze is adopted (the frozen
  /// CSR base is exactly the state to persist, already built). Disabling
  /// leaves recovery replaying the full WAL history.
  bool checkpoints = true;

  bool enabled() const { return !dir.empty(); }
  bool operator==(const DurabilityOptions&) const = default;
};

/// Stable lowercase name for log/EXPLAIN rendering.
const char* FsyncPolicyName(DurabilityOptions::Fsync v);

/// Rejects inert or unsatisfiable combinations with InvalidArgument:
///   * join=kLeapfrog with snapshot=kNever on the validation surface — the
///     mutable-graph scan has no sorted spans to intersect;
///   * join=kLeapfrog with commit_backend=kMutable on the incremental
///     surface — commit re-scans would silently fall back (this replaces
///     the old runtime "intersection_inert" warning);
///   * kernel != kAuto with join=kPickSmallest — a forced backend that can
///     never run;
///   * kernel != kAuto naming a backend unavailable in this binary or on
///     this host.
/// Returns OK for everything the engine can honor as stated.
Status ValidateExecutionPolicy(const ExecutionPolicy& policy,
                               ExecutionSurface surface);

/// Stable lowercase names for log/EXPLAIN rendering.
const char* JoinStrategyName(JoinStrategy v);
const char* PlanModeName(PlanMode v);
const char* SnapshotModeName(SnapshotMode v);
const char* CommitBackendName(CommitBackend v);

}  // namespace ged

#endif  // GEDLIB_REASON_POLICY_H_
