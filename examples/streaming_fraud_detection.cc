// Streaming fraud detection: an IncrementalValidator maintains GED
// violations over a growing transaction graph, while a GDC threshold rule
// (built-in predicates, paper §7.1) is kept live with the same multi-pin
// primitive (EnumerateMatchesTouching).
//
// Graph shape (append-only stream):
//   (account)-[uses]->(device)         shared devices link fraud rings
//   (account)-[made]->(txn)-[to]->(merchant)
// Rules:
//   ring:     account a shares a device with flagged account b ⇒ a.flagged=1
//             (violations = unflagged ring members — the alerts we want)
//   embargo:  a.sanctioned = 1 ∧ a made t ⇒ false   (forbidding GED)
//   limit:    t.amount > 10000 ∧ a.verified = 0 ⇒ false   (GDC, since GEDs
//             have no order predicates)
//
//   ./build/examples/streaming_fraud_detection
//   ./build/examples/streaming_fraud_detection --profile   # EXPLAIN rollup
//
// --profile runs the whole stream (seed validate + every commit) under an
// ObsSession and prints the per-rule EXPLAIN table plus the commit.*
// metric totals at the end.
//
// Crash-safe mode (--wal-dir): every commit is written ahead to a WAL in
// the given directory, so the stream survives a hard kill. Demo flow:
//
//   ./build/examples/streaming_fraud_detection --wal-dir /tmp/fraud \
//       --crash-at-batch 3        # simulated kill -9 right after batch 3
//   ./build/examples/streaming_fraud_detection --wal-dir /tmp/fraud
//
// The second run recovers the graph and the live violation report from the
// durable state, prints the recovered counts against a from-scratch
// revalidation (they must match), and finishes the remaining batches —
// ending with exactly the alerts an uninterrupted run produces.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <string_view>

#include "ext/gdc.h"
#include "incr/delta.h"
#include "incr/incremental.h"
#include "match/matcher.h"
#include "obs/obs.h"

using namespace ged;

namespace {

// ring: Q[a,d,b]( b.flagged = 1 -> a.flagged = 1 )
Ged RingGed() {
  Pattern q;
  VarId a = q.AddVar("a", "account");
  VarId d = q.AddVar("d", "device");
  VarId b = q.AddVar("b", "account");
  q.AddEdge(a, "uses", d);
  q.AddEdge(b, "uses", d);
  return Ged("ring", std::move(q),
             {Literal::Const(b, Sym("flagged"), Value(int64_t{1}))},
             {Literal::Const(a, Sym("flagged"), Value(int64_t{1}))});
}

// embargo: Q[a,t]( a.sanctioned = 1 -> false )
Ged EmbargoGed() {
  Pattern q;
  VarId a = q.AddVar("a", "account");
  VarId t = q.AddVar("t", "txn");
  q.AddEdge(a, "made", t);
  return Ged("embargo", std::move(q),
             {Literal::Const(a, Sym("sanctioned"), Value(int64_t{1}))}, {},
             /*y_is_false=*/true);
}

// limit: Q[a,t]( t.amount > 10000 ∧ a.verified = 0 -> false )
Gdc LimitGdc() {
  Pattern q;
  VarId a = q.AddVar("a", "account");
  VarId t = q.AddVar("t", "txn");
  q.AddEdge(a, "made", t);
  return Gdc("limit", std::move(q),
             {GdcLiteral::ConstPred(t, Sym("amount"), Pred::kGt,
                                    Value(int64_t{10000})),
              GdcLiteral::ConstPred(a, Sym("verified"), Pred::kEq,
                                    Value(int64_t{0}))},
             {}, /*y_is_false=*/true);
}

// Incrementally maintained violation set of a forbidding GDC: retract
// matches binding touched nodes, re-enumerate only the touched region with
// the multi-pin helper, re-check X. (The same retract/rescan algebra
// IncrementalValidator uses for GEDs, inlined for one rule.)
class GdcMonitor {
 public:
  explicit GdcMonitor(Gdc gdc) : gdc_(std::move(gdc)) {}

  void Rescan(const Graph& g, const std::vector<NodeId>& touched) {
    auto binds_touched = [&](const Match& h) {
      for (NodeId v : h) {
        if (std::binary_search(touched.begin(), touched.end(), v)) {
          return true;
        }
      }
      return false;
    };
    violations_.erase(std::remove_if(violations_.begin(), violations_.end(),
                                     binds_touched),
                      violations_.end());
    EnumerateMatchesTouching(gdc_.pattern(), g, touched, {},
                             [&](const Match& h) {
                               if (SatisfiesAllGdc(g, h, gdc_.X())) {
                                 violations_.push_back(h);
                               }
                               return true;
                             });
  }

  const std::vector<Match>& violations() const { return violations_; }

 private:
  Gdc gdc_;
  std::vector<Match> violations_;
};

}  // namespace

int main(int argc, char** argv) {
  bool profile = false;
  std::string wal_dir;
  int crash_at_batch = 0;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--profile") {
      profile = true;
    } else if (arg == "--wal-dir" && i + 1 < argc) {
      wal_dir = argv[++i];
    } else if (arg == "--crash-at-batch" && i + 1 < argc) {
      crash_at_batch = std::atoi(argv[++i]);
    } else {
      std::cerr << "usage: streaming_fraud_detection [--profile] "
                   "[--wal-dir <dir> [--crash-at-batch <n>]]\n";
      return 2;
    }
  }

  ObsSession session;
  ValidationOptions vopts;
  if (profile) vopts.obs = session.Options();
  int64_t start_ns = MonotonicNowNs();

  // Seed world: a few merchants, one flagged fraudster and its burner
  // device. Durable runs push it through a WAL-logged commit (epoch 1) so a
  // rerun recovers it; the node ids below are deterministic either way:
  // merchants 0..2, fraudster 3, burner 4.
  std::unique_ptr<IncrementalValidator> monitor;
  int first_batch = 1;
  if (!wal_dir.empty()) {
    vopts.durability.dir = wal_dir;
    IncrementalValidator::RecoveryStats rs;
    auto recovered =
        IncrementalValidator::Recover({RingGed(), EmbargoGed()}, vopts, &rs);
    if (!recovered.ok()) {
      std::cerr << "recovery failed: " << recovered.status().ToString()
                << "\n";
      return 1;
    }
    monitor = std::move(recovered.value());
    if (rs.recovered_epoch == 0) {
      GraphDelta seed = monitor->NewDelta();
      for (int i = 0; i < 3; ++i) {
        NodeId m = seed.AddNode("merchant");
        seed.SetAttr(m, "name", Value("merchant_" + std::to_string(i)));
      }
      NodeId fraudster = seed.AddNode("account");
      seed.SetAttr(fraudster, "flagged", Value(int64_t{1}));
      seed.SetAttr(fraudster, "verified", Value(int64_t{0}));
      NodeId dev = seed.AddNode("device");
      seed.AddEdge(fraudster, "uses", dev);
      auto committed = monitor->Commit(seed);
      if (!committed.ok()) {
        std::cerr << "seed commit failed: " << committed.status().ToString()
                  << "\n";
        return 1;
      }
    } else {
      // Prove the recovery: the live report rebuilt from checkpoint + WAL
      // must equal a from-scratch revalidation of the recovered graph.
      size_t expected = monitor->RevalidateFull().violations.size();
      size_t got = monitor->report().violations.size();
      std::cout << "recovered from " << wal_dir << ": epoch "
                << rs.recovered_epoch << " ("
                << (rs.from_checkpoint
                        ? "checkpoint @" + std::to_string(rs.checkpoint_epoch)
                              + " + "
                        : "")
                << rs.wal_records_replayed << " WAL records replayed), "
                << monitor->graph().NumNodes() << " nodes\n"
                << "recovered violations: " << got
                << ", expected (from-scratch revalidation): " << expected
                << (got == expected ? "  -- match\n" : "  -- MISMATCH\n");
      if (got != expected) return 1;
    }
    // Epoch 1 is the seed commit; batch b lands as epoch b+1.
    first_batch = static_cast<int>(monitor->commit_epoch());
  } else {
    Graph g;
    for (int i = 0; i < 3; ++i) {
      NodeId m = g.AddNode("merchant");
      g.SetAttr(m, "name", Value("merchant_" + std::to_string(i)));
    }
    NodeId fraudster = g.AddNode("account");
    g.SetAttr(fraudster, "flagged", Value(int64_t{1}));
    g.SetAttr(fraudster, "verified", Value(int64_t{0}));
    NodeId dev = g.AddNode("device");
    g.AddEdge(fraudster, "uses", dev);
    auto created = IncrementalValidator::Create(
        std::move(g), std::vector<Ged>{RingGed(), EmbargoGed()}, vopts);
    if (!created.ok()) {
      std::cerr << "create failed: " << created.status().ToString() << "\n";
      return 1;
    }
    monitor = std::move(created.value());
  }
  const std::vector<NodeId> merchants = {0, 1, 2};
  const NodeId burner = 4;

  // The GDC monitor is in-memory only; after a recovery, rebuild its
  // violation set by rescanning with every node marked touched.
  GdcMonitor limit(LimitGdc());
  if (monitor->graph().NumNodes() > 0) {
    std::vector<NodeId> all(monitor->graph().NumNodes());
    std::iota(all.begin(), all.end(), 0);
    limit.Rescan(monitor->graph(), all);
  }

  std::cout << "seed: " << monitor->graph().NumNodes() << " nodes, "
            << monitor->report().violations.size() << " GED violations\n\n";

  // Replay the RNG past batches a previous (crashed) run already committed,
  // so the continued stream is byte-identical to an uninterrupted one.
  std::mt19937 rng(7);
  for (int b = 1; b < first_batch; ++b) {
    for (int k = 0; k < 8; ++k) rng();
  }
  for (int batch = first_batch; batch <= 5; ++batch) {
    GraphDelta d = monitor->NewDelta();
    // Ordinary traffic: new verified accounts with small purchases.
    for (int i = 0; i < 4; ++i) {
      NodeId acc = d.AddNode("account");
      d.SetAttr(acc, "flagged", Value(int64_t{0}));
      d.SetAttr(acc, "verified", Value(int64_t{1}));
      NodeId dev = d.AddNode("device");
      d.AddEdge(acc, "uses", dev);
      NodeId txn = d.AddNode("txn");
      d.SetAttr(txn, "amount", Value(static_cast<int64_t>(rng() % 500)));
      d.AddEdge(acc, "made", txn);
      d.AddEdge(txn, "to", merchants[rng() % merchants.size()]);
    }
    if (batch == 2) {
      // A mule joins the ring: unflagged, but shares the burner device.
      NodeId mule = d.AddNode("account");
      d.SetAttr(mule, "flagged", Value(int64_t{0}));
      d.SetAttr(mule, "verified", Value(int64_t{1}));
      d.AddEdge(mule, "uses", burner);
    }
    if (batch == 3) {
      // An unverified account wires 50k — the GDC threshold rule.
      NodeId whale = d.AddNode("account");
      d.SetAttr(whale, "flagged", Value(int64_t{0}));
      d.SetAttr(whale, "verified", Value(int64_t{0}));
      NodeId txn = d.AddNode("txn");
      d.SetAttr(txn, "amount", Value(int64_t{50000}));
      d.AddEdge(whale, "made", txn);
      d.AddEdge(txn, "to", merchants[0]);
    }
    if (batch == 4) {
      // A sanctioned entity transacts — the forbidding GED.
      NodeId shady = d.AddNode("account");
      d.SetAttr(shady, "sanctioned", Value(int64_t{1}));
      NodeId txn = d.AddNode("txn");
      d.SetAttr(txn, "amount", Value(int64_t{900}));
      d.AddEdge(shady, "made", txn);
      d.AddEdge(txn, "to", merchants[1]);
    }

    auto applied = monitor->Commit(d);
    if (!applied.ok()) {
      std::cerr << "commit failed: " << applied.status().ToString() << "\n";
      return 1;
    }
    limit.Rescan(monitor->graph(), applied.value().touched);

    const auto& stats = monitor->last_commit();
    std::cout << "batch " << batch << ": +" << applied.value().nodes_added
              << " nodes, +" << applied.value().edges_added << " edges ("
              << stats.touched << " touched, " << stats.matches_checked
              << " matches re-checked)\n";
    for (const Violation& v : monitor->report().violations) {
      const Ged& rule = monitor->sigma()[v.ged_index];
      std::cout << "  ALERT [" << rule.name() << "] h = (";
      for (size_t i = 0; i < v.match.size(); ++i) {
        std::cout << (i ? ", " : "") << v.match[i];
      }
      std::cout << ")\n";
    }
    for (const Match& h : limit.violations()) {
      std::cout << "  ALERT [limit] account " << h[0] << " txn " << h[1]
                << "\n";
    }
    std::cout << "\n";
    if (batch == crash_at_batch) {
      // Simulated kill -9: no destructors, no flushes beyond this line. The
      // WAL already holds every acknowledged commit; rerun to recover.
      std::cout << "simulating crash (kill -9) after batch " << batch
                << " -- rerun with the same --wal-dir to recover\n"
                << std::flush;
      std::_Exit(137);
    }
  }

  std::cout << "final: " << monitor->graph().NumNodes() << " nodes, report "
            << (monitor->report().satisfied ? "clean" : "has violations")
            << " (" << monitor->report().violations.size()
            << " GED violations, " << limit.violations().size()
            << " GDC violations)\n";

  if (profile) {
    int64_t total_ns = MonotonicNowNs() - start_ns;
    const auto& totals = monitor->last_commit();
    std::cout << "\n"
              << session.Profiler().Finish(total_ns).ToTable() << "\n"
              << session.Metrics().Snapshot().ToTable()
              << "\ncommit totals: " << totals.commits << " commits, "
              << totals.total_touched << " nodes touched, "
              << totals.total_retracted << " retracted, "
              << totals.total_added << " added, "
              << totals.total_matches_checked << " matches re-checked\n";
  }
  return 0;
}
