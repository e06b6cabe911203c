// Crash-safety tests for the durable incremental validator: WAL-backed
// commits, checkpoint + WAL-suffix recovery, graceful degradation under
// injected faults, and the headline crash matrix — for every failpoint on
// the commit and checkpoint paths, a forked child crashes there
// (std::_Exit, no flushes) and the parent recovers a report bit-identical
// to a never-crashed oracle at the same commit epoch.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "ged/ged.h"
#include "incr/incremental.h"
#include "incr/wal.h"
#include "reason/validation.h"
#include "validator_testing.h"

namespace ged {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/gedlib_recovery_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

void RemoveTree(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

// Σ: every (x:hub)-[link]->(y:spoke) match is a violation (Y = false), so
// the live report grows deterministically with the workload below.
std::vector<Ged> TestSigma() {
  Pattern q;
  VarId x = q.AddVar("x", "hub");
  VarId y = q.AddVar("y", "spoke");
  q.AddEdge(x, "link", y);
  std::vector<Ged> sigma;
  sigma.emplace_back("forbid_link", std::move(q), std::vector<Literal>{},
                     std::vector<Literal>{}, /*y_is_false=*/true);
  return sigma;
}

// Deterministic workload step i against the current graph: the child and
// the oracle generate byte-identical delta sequences from it.
void RecordStep(GraphDelta* d, const Graph& g, int i) {
  NodeId v = d->AddNode(i % 3 == 0 ? "hub" : "spoke");
  d->SetAttr(v, "idx", Value(int64_t{i}));
  if (i % 4 == 0) d->SetAttr(v, "tag", Value("step-" + std::to_string(i)));
  if (g.NumNodes() > 0) {
    d->AddEdge(v, "link", static_cast<NodeId>((i * 7) % g.NumNodes()));
    if (i % 2 == 1) {
      d->AddEdge(static_cast<NodeId>((i * 3) % g.NumNodes()), "link", v);
    }
  }
}

ValidationOptions DurableOptions(const std::string& dir,
                                 size_t refreeze_cutoff = 4096) {
  ValidationOptions opts;
  opts.durability.dir = dir;
  opts.durability.fsync = DurabilityOptions::Fsync::kEveryCommit;
  opts.overlay_refreeze_cutoff = refreeze_cutoff;
  return opts;
}

// Builds the never-crashed oracle: a fresh (non-durable) validator fed the
// first `epochs` deterministic steps.
std::unique_ptr<IncrementalValidator> BuildOracle(uint64_t epochs) {
  auto v = CreateValidator(Graph(), TestSigma());
  for (uint64_t i = 0; i < epochs; ++i) {
    GraphDelta d = v->NewDelta();
    RecordStep(&d, v->graph(), static_cast<int>(i));
    EXPECT_TRUE(v->Commit(d).ok());
  }
  return v;
}

void ExpectReportsEqual(const ValidationReport& a, const ValidationReport& b) {
  EXPECT_EQ(a.satisfied, b.satisfied);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.violations, b.violations);
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir(); }
  void TearDown() override {
    failpoints::DisableAll();
    RemoveTree(dir_);
  }
  std::string dir_;
};

TEST_F(RecoveryTest, MissingDirectoryIsCleanColdStart) {
  ValidationOptions opts = DurableOptions(dir_ + "/fresh");
  IncrementalValidator::RecoveryStats rs;
  auto v = IncrementalValidator::Recover(TestSigma(), opts, &rs);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_FALSE(rs.from_checkpoint);
  EXPECT_EQ(rs.recovered_epoch, 0u);
  EXPECT_EQ(v.value()->graph().NumNodes(), 0u);
  EXPECT_TRUE(v.value()->durable());
  // The recovered validator serves commits durably right away.
  GraphDelta d = v.value()->NewDelta();
  RecordStep(&d, v.value()->graph(), 0);
  EXPECT_TRUE(v.value()->Commit(d).ok());
  EXPECT_EQ(v.value()->commit_epoch(), 1u);
}

TEST_F(RecoveryTest, CleanShutdownRecoversExactly) {
  constexpr int kSteps = 25;
  {
    auto v = IncrementalValidator::Create(Graph(), TestSigma(),
                                          DurableOptions(dir_));
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    for (int i = 0; i < kSteps; ++i) {
      GraphDelta d = v.value()->NewDelta();
      RecordStep(&d, v.value()->graph(), i);
      ASSERT_TRUE(v.value()->Commit(d).ok());
    }
  }
  IncrementalValidator::RecoveryStats rs;
  auto recovered =
      IncrementalValidator::Recover(TestSigma(), DurableOptions(dir_), &rs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(rs.recovered_epoch, static_cast<uint64_t>(kSteps));
  auto oracle = BuildOracle(kSteps);
  EXPECT_TRUE(recovered.value()->graph() == oracle->graph());
  ExpectReportsEqual(recovered.value()->report(), oracle->report());
}

TEST_F(RecoveryTest, CheckpointPlusSuffixReplay) {
  constexpr int kSteps = 60;
  {
    // Tiny cutoff: several re-freezes run, each piggybacking a checkpoint.
    auto v = IncrementalValidator::Create(Graph(), TestSigma(),
                                          DurableOptions(dir_, 4));
    ASSERT_TRUE(v.ok());
    for (int i = 0; i < kSteps; ++i) {
      GraphDelta d = v.value()->NewDelta();
      RecordStep(&d, v.value()->graph(), i);
      ASSERT_TRUE(v.value()->Commit(d).ok());
    }
    v.value()->FinishRefreeze();
    EXPECT_GT(v.value()->checkpoints_written(), 0u);
  }
  IncrementalValidator::RecoveryStats rs;
  auto recovered = IncrementalValidator::Recover(TestSigma(),
                                                 DurableOptions(dir_), &rs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(rs.from_checkpoint);
  EXPECT_GT(rs.checkpoint_epoch, 0u);
  EXPECT_EQ(rs.recovered_epoch, static_cast<uint64_t>(kSteps));
  // Replay covered only the suffix past the checkpoint.
  EXPECT_EQ(rs.checkpoint_epoch + rs.wal_records_replayed,
            static_cast<uint64_t>(kSteps));
  auto oracle = BuildOracle(kSteps);
  EXPECT_TRUE(recovered.value()->graph() == oracle->graph());
  ExpectReportsEqual(recovered.value()->report(), oracle->report());
}

TEST_F(RecoveryTest, WalFailureRejectsCommitAndLeavesStateUntouched) {
  auto v = IncrementalValidator::Create(Graph(), TestSigma(),
                                        DurableOptions(dir_));
  ASSERT_TRUE(v.ok());
  for (int i = 0; i < 5; ++i) {
    GraphDelta d = v.value()->NewDelta();
    RecordStep(&d, v.value()->graph(), i);
    ASSERT_TRUE(v.value()->Commit(d).ok());
  }
  const Graph graph_before = v.value()->graph();
  const ValidationReport report_before = v.value()->report();
  const uint64_t epoch_before = v.value()->commit_epoch();

  failpoints::Enable("wal.append.write", FailpointAction::Error());
  GraphDelta d = v.value()->NewDelta();
  RecordStep(&d, v.value()->graph(), 5);
  auto r = v.value()->Commit(d);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(v.value()->graph() == graph_before);
  ExpectReportsEqual(v.value()->report(), report_before);
  EXPECT_EQ(v.value()->commit_epoch(), epoch_before);
  EXPECT_GE(v.value()->wal()->stats().failures, 1u);

  // The cause clears; the very same delta commits (same epoch stamp).
  failpoints::DisableAll();
  ASSERT_TRUE(v.value()->Commit(d).ok());
  EXPECT_EQ(v.value()->commit_epoch(), epoch_before + 1);
}

TEST_F(RecoveryTest, RefreezeFailureDegradesAndRecovers) {
  ValidationOptions opts;  // durability not needed for this one
  opts.overlay_refreeze_cutoff = 4;
  auto v = IncrementalValidator::Create(Graph(), TestSigma(), opts);
  ASSERT_TRUE(v.ok());

  failpoints::Enable("refreeze.worker", FailpointAction::Error());
  int i = 0;
  while (v.value()->last_commit().refreezes_started == 0) {
    GraphDelta d = v.value()->NewDelta();
    RecordStep(&d, v.value()->graph(), i++);
    ASSERT_TRUE(v.value()->Commit(d).ok());
    ASSERT_LT(i, 64) << "re-freeze never started";
  }
  // Adoption of the failed worker must not crash or wedge: serving
  // continues on the current overlay, the failure is counted.
  EXPECT_FALSE(v.value()->FinishRefreeze());
  EXPECT_FALSE(v.value()->RefreezeInFlight());
  EXPECT_EQ(v.value()->last_commit().refreezes_failed, 1u);
  EXPECT_EQ(v.value()->overlay_epoch(), 0u);
  ExpectReportsEqual(v.value()->report(), v.value()->RevalidateFull());

  // Fault cleared: after the capped backoff, the next re-freeze succeeds
  // and the overlay advances to a fresh base epoch.
  failpoints::DisableAll();
  uint64_t started = v.value()->last_commit().refreezes_started;
  while (v.value()->last_commit().refreezes_started == started) {
    GraphDelta d = v.value()->NewDelta();
    RecordStep(&d, v.value()->graph(), i++);
    ASSERT_TRUE(v.value()->Commit(d).ok());
    ASSERT_LT(i, 128) << "re-freeze never retried after backoff";
  }
  EXPECT_TRUE(v.value()->FinishRefreeze());
  EXPECT_EQ(v.value()->overlay_epoch(), 1u);
  EXPECT_EQ(v.value()->last_commit().refreezes_failed, 1u);
  ExpectReportsEqual(v.value()->report(), v.value()->RevalidateFull());
}

TEST_F(RecoveryTest, CheckpointFailureIsNonFatal) {
  auto v = IncrementalValidator::Create(Graph(), TestSigma(),
                                        DurableOptions(dir_, 4));
  ASSERT_TRUE(v.ok());
  failpoints::Enable("checkpoint.write", FailpointAction::Error());
  for (int i = 0; i < 30; ++i) {
    GraphDelta d = v.value()->NewDelta();
    RecordStep(&d, v.value()->graph(), i);
    ASSERT_TRUE(v.value()->Commit(d).ok());
  }
  v.value()->FinishRefreeze();
  EXPECT_GT(v.value()->checkpoint_failures(), 0u);
  EXPECT_EQ(v.value()->checkpoints_written(), 0u);
  failpoints::DisableAll();

  // The WAL alone still recovers everything.
  const uint64_t epoch = v.value()->commit_epoch();
  v.value().reset();  // release the WAL before recovering from the dir
  IncrementalValidator::RecoveryStats rs;
  auto recovered = IncrementalValidator::Recover(TestSigma(),
                                                 DurableOptions(dir_), &rs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(rs.from_checkpoint);
  EXPECT_EQ(rs.recovered_epoch, epoch);
  auto oracle = BuildOracle(epoch);
  EXPECT_TRUE(recovered.value()->graph() == oracle->graph());
  ExpectReportsEqual(recovered.value()->report(), oracle->report());
}

// ----- the crash matrix -----------------------------------------------------

struct CrashCase {
  const char* failpoint;
  uint64_t nth;           // armed hit to crash on
  size_t refreeze_cutoff; // small => checkpoints happen
  int commits;
};

// Child body: build a durable validator over `dir`, arm the crash, run the
// deterministic workload. Exit codes: 42 = injected crash (expected),
// 0 = the failpoint never fired, 3/4 = setup/commit failure.
int CrashChild(const std::string& dir, const CrashCase& c) {
  ValidationOptions opts = DurableOptions(dir, c.refreeze_cutoff);
  if (c.refreeze_cutoff < 4096) {
    // Keep WAL segments small too, so rotation-path points get exercised.
    opts.durability.wal_segment_bytes = 512;
  }
  auto v = IncrementalValidator::Create(Graph(), TestSigma(), opts);
  if (!v.ok()) return 3;
  // Arm only after construction so the crash hits mid-stream, not during
  // the WAL open of a fresh validator.
  failpoints::Enable(c.failpoint, FailpointAction::Crash().OnNthHit(c.nth));
  for (int i = 0; i < c.commits; ++i) {
    GraphDelta d = v.value()->NewDelta();
    RecordStep(&d, v.value()->graph(), i);
    if (!v.value()->Commit(d).ok()) return 4;
  }
  // Block on any in-flight re-freeze: a worker headed for a checkpoint
  // failpoint crashes the process during this join.
  v.value()->FinishRefreeze();
  return 0;
}

TEST_F(RecoveryTest, CrashMatrixRecoversBitIdenticalReports) {
  const CrashCase kMatrix[] = {
      // Commit path: crash before, inside, and after the WAL write.
      {"wal.append.write", 8, 4096, 20},
      {"wal.append.mid_write", 8, 4096, 20},
      {"wal.append.fsync", 8, 4096, 20},
      {"commit.wal_appended", 8, 4096, 20},
      // Segment rotation (small segments force it).
      {"wal.rotate.open", 1, 16, 40},
      // Checkpoint path: crash while writing, syncing, renaming.
      {"checkpoint.write", 1, 8, 40},
      {"checkpoint.fsync", 1, 8, 40},
      {"checkpoint.rename", 1, 8, 40},
  };
  for (const CrashCase& c : kMatrix) {
    SCOPED_TRACE(c.failpoint);
    std::string dir = dir_ + "/" + c.failpoint;

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      _exit(CrashChild(dir, c));
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), kFailpointCrashExitCode)
        << "child did not crash at the failpoint (exit "
        << WEXITSTATUS(wstatus) << ")";

    IncrementalValidator::RecoveryStats rs;
    auto recovered = IncrementalValidator::Recover(
        TestSigma(), DurableOptions(dir), &rs);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

    // The oracle never crashed: it simply ran the first `recovered_epoch`
    // steps. Reports must match bit-for-bit.
    auto oracle = BuildOracle(rs.recovered_epoch);
    EXPECT_TRUE(recovered.value()->graph() == oracle->graph());
    ExpectReportsEqual(recovered.value()->report(), oracle->report());

    // And the recovered validator still serves durable commits.
    GraphDelta d = recovered.value()->NewDelta();
    RecordStep(&d, recovered.value()->graph(),
               static_cast<int>(rs.recovered_epoch));
    EXPECT_TRUE(recovered.value()->Commit(d).ok());
  }
}

}  // namespace
}  // namespace ged
