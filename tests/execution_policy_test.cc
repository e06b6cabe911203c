// ExecutionPolicy (reason/policy.h): the coherent engine-options API.
// Covers the options-validation rules that replaced runtime inert-knob
// warnings, their enforcement by the full-validation entry points, and the
// kernel-backend name round-trip the env override depends on.

#include <gtest/gtest.h>

#include <string>

#include "gen/scenarios.h"
#include "graph/overlay.h"
#include "match/kernels/kernel.h"
#include "match/kernels/registry.h"
#include "reason/policy.h"
#include "reason/validation.h"

namespace ged {
namespace {

TEST(ExecutionPolicy, DefaultPolicyIsValidOnEverySurface) {
  ExecutionPolicy policy;
  EXPECT_TRUE(
      ValidateExecutionPolicy(policy, ExecutionSurface::kValidation).ok());
  EXPECT_TRUE(
      ValidateExecutionPolicy(policy, ExecutionSurface::kIncremental).ok());
}

TEST(ExecutionPolicy, RejectsLeapfrogWithoutSnapshot) {
  // Rule 1: the mutable-graph scan has no sorted spans, so an explicit
  // leapfrog requirement cannot be honored with the snapshot disabled.
  ExecutionPolicy policy;
  policy.join = JoinStrategy::kLeapfrog;
  policy.snapshot = SnapshotMode::kNever;
  Status s = ValidateExecutionPolicy(policy, ExecutionSurface::kValidation);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The same pair is fine on the incremental surface, where `snapshot`
  // governs only the seeding pass and commits read the overlay.
  policy.commit_backend = CommitBackend::kOverlay;
  EXPECT_TRUE(
      ValidateExecutionPolicy(policy, ExecutionSurface::kIncremental).ok());
}

TEST(ExecutionPolicy, ValidateRejectsInertPolicyWithoutScanning) {
  // join=leapfrog with snapshot=never on a mutable graph: Validate and
  // ValidateWithPlan return the rejection instead of silently scanning
  // without the intersection.
  DenseParams dp;
  dp.num_members = 128;
  dp.community_size = 32;
  dp.follows_per_member = 12;
  DenseInstance dense = GenDenseCommunity(dp);
  std::vector<Ged> sigma = DenseCliqueGeds();
  RulesetPlan plan = RulesetPlan::Compile(sigma);
  auto lf_rounds = [](ObsSession& session) {
    return session.Metrics()
        .Snapshot()
        .metrics[static_cast<size_t>(EngineMetric::kMatchLfRounds)]
        .value;
  };
  ObsSession session;
  ValidationOptions opts;
  opts.obs = session.Options();
  opts.policy.join = JoinStrategy::kLeapfrog;
  opts.policy.snapshot = SnapshotMode::kNever;
  for (const ValidationReport& r :
       {Validate(dense.graph, sigma, opts),
        ValidateWithPlan(dense.graph, plan, opts)}) {
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(r.satisfied);
    EXPECT_TRUE(r.violations.empty());
    EXPECT_EQ(r.matches_checked, 0u);
  }
  EXPECT_EQ(lf_rounds(session), 0u);

  // The CSR backends scan sorted spans whatever `snapshot` says, so the
  // same policy is honored there.
  FrozenGraph frozen = FrozenGraph::Freeze(dense.graph);
  ValidationReport on_frozen = Validate(frozen, sigma, opts);
  EXPECT_TRUE(on_frozen.status.ok()) << on_frozen.status.ToString();
  uint64_t frozen_rounds = lf_rounds(session);
  EXPECT_GT(frozen_rounds, 0u);
  OverlayView overlay(std::make_shared<FrozenGraph>(std::move(frozen)));
  ValidationReport on_overlay = ValidateWithPlan(overlay, plan, opts);
  EXPECT_TRUE(on_overlay.status.ok()) << on_overlay.status.ToString();
  EXPECT_EQ(on_overlay.violations, on_frozen.violations);
  EXPECT_GT(lf_rounds(session), frozen_rounds);

  // snapshot=auto freezes first and the intersection runs.
  opts.policy.snapshot = SnapshotMode::kAuto;
  ValidationReport accepted = Validate(dense.graph, sigma, opts);
  EXPECT_TRUE(accepted.status.ok());
  EXPECT_EQ(accepted.violations, on_frozen.violations);
}

TEST(ExecutionPolicy, RejectsLeapfrogOnMutableCommitBackend) {
  // Rule 2 — the acceptance-gate case: requiring the leapfrog join while
  // committing against the mutable graph is unsatisfiable and must fail
  // fast instead of warning at runtime.
  ExecutionPolicy policy;
  policy.join = JoinStrategy::kLeapfrog;
  policy.commit_backend = CommitBackend::kMutable;
  Status s = ValidateExecutionPolicy(policy, ExecutionSurface::kIncremental);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("mutable"), std::string::npos) << s.message();
  // Validation surface never commits; the pair is fine there.
  EXPECT_TRUE(
      ValidateExecutionPolicy(policy, ExecutionSurface::kValidation).ok());
}

TEST(ExecutionPolicy, RejectsForcedKernelWithLegacyJoin) {
  // Rule 3: a forced SIMD backend can never run under the pick-smallest
  // generator — inert knobs are errors now.
  ExecutionPolicy policy;
  policy.join = JoinStrategy::kPickSmallest;
  policy.kernel = KernelBackend::kScalar;
  for (ExecutionSurface surface :
       {ExecutionSurface::kValidation, ExecutionSurface::kIncremental}) {
    Status s = ValidateExecutionPolicy(policy, surface);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
}

TEST(ExecutionPolicy, RejectsUnavailableKernelBackend) {
  // Rule 4: an explicit backend this binary/host cannot serve is rejected
  // up front (ResolveKernel would silently fall back — the policy layer is
  // where "I require X" gets its hard answer).
  bool found_missing = false;
  for (KernelBackend b : {KernelBackend::kAvx2, KernelBackend::kNeon}) {
    ExecutionPolicy policy;
    policy.kernel = b;
    Status s = ValidateExecutionPolicy(policy, ExecutionSurface::kValidation);
    if (KernelAvailable(b)) {
      EXPECT_TRUE(s.ok()) << KernelBackendName(b);
    } else {
      found_missing = true;
      ASSERT_FALSE(s.ok()) << KernelBackendName(b);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
      // The error teaches the fix: it lists what is available.
      EXPECT_NE(s.message().find("available"), std::string::npos)
          << s.message();
    }
  }
  // At least one of AVX2/NEON is absent on any single-ISA host; if a future
  // host serves both, the available half of the loop still ran.
  (void)found_missing;
}

TEST(ExecutionPolicy, ScalarKernelAlwaysValidatesUnderAutoJoin) {
  ExecutionPolicy policy;
  policy.kernel = KernelBackend::kScalar;
  EXPECT_TRUE(
      ValidateExecutionPolicy(policy, ExecutionSurface::kValidation).ok());
  policy.join = JoinStrategy::kLeapfrog;
  EXPECT_TRUE(
      ValidateExecutionPolicy(policy, ExecutionSurface::kValidation).ok());
}

// ----- backend name round-trip ----------------------------------------------

TEST(KernelBackendNames, ParseRoundTripsEveryName) {
  for (KernelBackend b : {KernelBackend::kAuto, KernelBackend::kScalar,
                          KernelBackend::kAvx2, KernelBackend::kNeon}) {
    KernelBackend parsed = KernelBackend::kScalar;
    ASSERT_TRUE(ParseKernelBackend(KernelBackendName(b), &parsed))
        << KernelBackendName(b);
    EXPECT_EQ(parsed, b);
  }
  KernelBackend parsed = KernelBackend::kAuto;
  EXPECT_FALSE(ParseKernelBackend("sse9", &parsed));
  EXPECT_FALSE(ParseKernelBackend("", &parsed));
}

TEST(PolicyNames, StableLowercaseNames) {
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kLeapfrog), "leapfrog");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kPickSmallest),
               "pick_smallest");
  EXPECT_STREQ(PlanModeName(PlanMode::kCompiled), "compiled");
  EXPECT_STREQ(SnapshotModeName(SnapshotMode::kNever), "never");
  EXPECT_STREQ(CommitBackendName(CommitBackend::kOverlay), "overlay");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kAvx2), "avx2");
}

}  // namespace
}  // namespace ged
