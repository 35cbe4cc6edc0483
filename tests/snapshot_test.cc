// MVCC snapshot reads over the delta machinery: a read-only statement
// resolves against the newest committed version <= its snapshot
// sequence, takes no lock, raises no read-timestamp mark, and therefore
// can never abort a writer. This suite covers the visibility rules
// (pre-commit values mid-overwrite, repeatable reads, snapshots vs
// version checkout), history pruning (bounded retention that never
// frees a version a live snapshot still needs), and the service-layer
// regression the feature exists for: a read-only storm must not reject
// a single write. Run plain, under ASan, and under TSan.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "server/executor.h"
#include "server/transport.h"
#include "txn/snapshot_index.h"
#include "txn/version_store.h"

namespace cactis {
namespace {

using core::Database;
using core::DatabaseOptions;
using txn::SnapshotIndex;

// --- VersionStore pruning arithmetic ----------------------------------------

txn::TransactionDelta MakeDelta(int marker) {
  txn::TransactionDelta d;
  d.txn = TxnId(marker);
  return d;
}

TEST(VersionStorePruneTest, PruneToKeepsAbsolutePositions) {
  txn::VersionStore vs;
  for (int i = 1; i <= 5; ++i) vs.Append(MakeDelta(i));
  EXPECT_EQ(vs.PruneTo(2), 2u);
  EXPECT_EQ(vs.base(), 2u);
  EXPECT_EQ(vs.end(), 5u);
  EXPECT_EQ(vs.position(), 5u);
  EXPECT_EQ(vs.pruned_deltas(), 2u);
  // Positions are absolute: the next commit is still number 6.
  EXPECT_EQ(vs.Append(MakeDelta(6)), 6u);
  // Undo down to the base is fine; past it is not.
  EXPECT_TRUE(vs.DeltasToUndo(2).ok());
  EXPECT_FALSE(vs.DeltasToUndo(1).ok());
}

TEST(VersionStorePruneTest, PruneClampsToPositionAndEnd) {
  txn::VersionStore vs;
  for (int i = 1; i <= 4; ++i) vs.Append(MakeDelta(i));
  vs.SetPosition(2);
  // Asking to prune everything only prunes up to the checkout position.
  EXPECT_EQ(vs.PruneTo(100), 2u);
  EXPECT_EQ(vs.base(), 2u);
  EXPECT_EQ(vs.end(), 4u);
  // Redo forward across retained history still works.
  auto redo = vs.DeltasToRedo(4);
  ASSERT_TRUE(redo.ok());
  EXPECT_EQ(redo->size(), 2u);
}

TEST(VersionStorePruneTest, PopLastStopsAtPrunedHistory) {
  txn::VersionStore vs;
  for (int i = 1; i <= 3; ++i) vs.Append(MakeDelta(i));
  EXPECT_EQ(vs.PruneTo(2), 2u);
  EXPECT_TRUE(vs.PopLast().ok());  // 3 -> 2
  auto popped = vs.PopLast();      // 2 is pruned: nothing left to undo
  EXPECT_FALSE(popped.ok());
}

TEST(VersionStorePruneTest, PruneNeverCrossesNamedVersions) {
  txn::VersionStore vs;
  vs.Append(MakeDelta(1));
  vs.Append(MakeDelta(2));
  ASSERT_TRUE(vs.CreateVersion("keep").ok());
  vs.Append(MakeDelta(3));
  EXPECT_EQ(vs.OldestNamedPosition(), 2u);
}

// --- Snapshot visibility (database level) -----------------------------------

const char* kCounterSchema = R"(
  object class counter is
    attributes
      v : int;
  end object;
)";

class SnapshotVisibilityTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(db_.LoadSchema(kCounterSchema).ok()); }

  Value MustSnapshotGet(const SnapshotIndex::Snapshot& snap, InstanceId id) {
    auto v = db_.TryGetSnapshot(snap, id, "v");
    EXPECT_TRUE(v.has_value()) << "snapshot read missed";
    if (!v.has_value()) return Value();
    EXPECT_TRUE(v->ok()) << v->status().message();
    return **v;
  }

  Database db_;
};

TEST_F(SnapshotVisibilityTest, ReaderSeesPreCommitValueMidOverwrite) {
  auto id = *db_.Create("counter");
  ASSERT_TRUE(db_.Set(id, "v", Value::Int(1)).ok());

  auto t = db_.Begin();
  ASSERT_TRUE(t->Set(id, "v", Value::Int(2)).ok());
  // The overwrite is staged but not committed: a snapshot acquired now
  // must still prove the committed value 1.
  SnapshotIndex::Snapshot snap = db_.AcquireSnapshot();
  EXPECT_EQ(MustSnapshotGet(snap, id), Value::Int(1));
  ASSERT_TRUE(t->Commit().ok());
  // The held snapshot pre-dates the commit and keeps answering 1; a
  // fresh one sees 2.
  EXPECT_EQ(MustSnapshotGet(snap, id), Value::Int(1));
  SnapshotIndex::Snapshot after = db_.AcquireSnapshot();
  EXPECT_EQ(MustSnapshotGet(after, id), Value::Int(2));
}

TEST_F(SnapshotVisibilityTest, RepeatableReadsAcrossInterleavedCommits) {
  auto id = *db_.Create("counter");
  ASSERT_TRUE(db_.Set(id, "v", Value::Int(10)).ok());
  SnapshotIndex::Snapshot snap = db_.AcquireSnapshot();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_.Set(id, "v", Value::Int(100 + i)).ok());
    // However many commits interleave, the same handle keeps reading
    // the same version.
    EXPECT_EQ(MustSnapshotGet(snap, id), Value::Int(10));
  }
}

TEST_F(SnapshotVisibilityTest, SnapshotsFollowVersionCheckout) {
  auto id = *db_.Create("counter");
  ASSERT_TRUE(db_.Set(id, "v", Value::Int(1)).ok());
  ASSERT_TRUE(db_.CreateVersion("v1").ok());
  ASSERT_TRUE(db_.Set(id, "v", Value::Int(2)).ok());

  SnapshotIndex::Snapshot tip = db_.AcquireSnapshot();
  ASSERT_TRUE(db_.CheckoutVersion("v1").ok());
  // New snapshots pin the checked-out position...
  SnapshotIndex::Snapshot at_v1 = db_.AcquireSnapshot();
  EXPECT_EQ(MustSnapshotGet(at_v1, id), Value::Int(1));
  // ...while the handle acquired at the tip still proves the newer
  // value (checkout-backward keeps the redo tail).
  EXPECT_EQ(MustSnapshotGet(tip, id), Value::Int(2));
}

TEST_F(SnapshotVisibilityTest, UndoExpiresSnapshotsBeforeSeqReuse) {
  auto id = *db_.Create("counter");
  ASSERT_TRUE(db_.Set(id, "v", Value::Int(1)).ok());
  ASSERT_TRUE(db_.Set(id, "v", Value::Int(2)).ok());
  SnapshotIndex::Snapshot snap = db_.AcquireSnapshot();
  ASSERT_TRUE(db_.UndoLast().ok());
  ASSERT_TRUE(db_.Set(id, "v", Value::Int(3)).ok());
  // The undone sequence number was reissued to the v=3 commit. The old
  // snapshot must NOT read 3 (or 2): it misses, and the caller falls
  // back to a locked path.
  auto stale = db_.TryGetSnapshot(snap, id, "v");
  EXPECT_FALSE(stale.has_value());
  SnapshotIndex::Snapshot fresh = db_.AcquireSnapshot();
  EXPECT_EQ(MustSnapshotGet(fresh, id), Value::Int(3));
}

TEST_F(SnapshotVisibilityTest, InstancesOfTracksCreateAndDelete) {
  auto a = *db_.Create("counter");
  SnapshotIndex::Snapshot one = db_.AcquireSnapshot();
  auto b = *db_.Create("counter");

  auto old_list = db_.TryInstancesOfSnapshot(one, "counter");
  ASSERT_TRUE(old_list.has_value() && old_list->ok());
  EXPECT_EQ((*old_list)->size(), 1u);

  SnapshotIndex::Snapshot two = db_.AcquireSnapshot();
  auto new_list = db_.TryInstancesOfSnapshot(two, "counter");
  ASSERT_TRUE(new_list.has_value() && new_list->ok());
  EXPECT_EQ((*new_list)->size(), 2u);

  ASSERT_TRUE(db_.Delete(a).ok());
  SnapshotIndex::Snapshot three = db_.AcquireSnapshot();
  auto after_del = db_.TryInstancesOfSnapshot(three, "counter");
  ASSERT_TRUE(after_del.has_value() && after_del->ok());
  ASSERT_EQ((*after_del)->size(), 1u);
  EXPECT_EQ((*after_del)->front(), b);
  // The deleted instance itself misses at `three` but still resolves at
  // the older snapshot.
  EXPECT_FALSE(db_.TryGetSnapshot(three, a, "v").has_value());
  EXPECT_TRUE(db_.TryGetSnapshot(two, a, "v").has_value());
}

TEST_F(SnapshotVisibilityTest, UnknownAttributeIsDefinitive) {
  auto id = *db_.Create("counter");
  SnapshotIndex::Snapshot snap = db_.AcquireSnapshot();
  auto v = db_.TryGetSnapshot(snap, id, "no_such_attr");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotVisibilityTest, SelectFiltersAtTheSnapshot) {
  auto a = *db_.Create("counter");
  auto b = *db_.Create("counter");
  ASSERT_TRUE(db_.Set(a, "v", Value::Int(1)).ok());
  ASSERT_TRUE(db_.Set(b, "v", Value::Int(5)).ok());
  SnapshotIndex::Snapshot snap = db_.AcquireSnapshot();
  // Flip b below the threshold after the snapshot: the held snapshot
  // still selects it.
  ASSERT_TRUE(db_.Set(b, "v", Value::Int(0)).ok());
  auto sel = db_.TrySelectWhereSnapshot(snap, "counter", "v > 3");
  ASSERT_TRUE(sel.has_value());
  ASSERT_TRUE(sel->ok()) << sel->status().message();
  ASSERT_EQ((*sel)->size(), 1u);
  EXPECT_EQ((*sel)->front(), b);
}

TEST_F(SnapshotVisibilityTest, LargeExtentIsAnsweredWhole) {
  // Extents are derived from the version chains, so no class size makes
  // the snapshot path give up.
  for (int i = 0; i < 5000; ++i) ASSERT_TRUE(db_.Create("counter").ok());
  SnapshotIndex::Snapshot snap = db_.AcquireSnapshot();
  auto list = db_.TryInstancesOfSnapshot(snap, "counter");
  ASSERT_TRUE(list.has_value()) << "a 5000-instance extent missed";
  ASSERT_TRUE(list->ok());
  ASSERT_EQ((*list)->size(), 5000u);
  EXPECT_TRUE(std::is_sorted((*list)->begin(), (*list)->end()));
  EXPECT_EQ(**list, *db_.InstancesOf("counter"));
}

// The extent scan never reports a short extent: once a prune folds a
// chain past a held snapshot, that instance has no node <= the snapshot,
// so the scan must miss rather than leave it out.
TEST(SnapshotIndexTest, ExtentNeverOmitsAnInstanceFoldedPastTheSnapshot) {
  SnapshotIndex index;
  const InstanceId id(1);
  const ClassId cls(1);
  index.RecordCreate(id, 1, cls, {{0, Value::Int(0)}});
  index.SetLatestPublished(1);
  SnapshotIndex::Snapshot held = index.Acquire();
  ASSERT_TRUE(held.valid());
  index.RecordWrite(id, 2, 0, Value::Int(7));
  index.SetLatestPublished(2);
  index.Prune(2);  // folds id 1 into a single base node at 2

  std::vector<InstanceId> members;
  if (index.MembersAt(held, cls, &members) == SnapshotIndex::Lookup::kHit) {
    EXPECT_EQ(members, std::vector<InstanceId>{id});
  }
  SnapshotIndex::Snapshot fresh = index.Acquire();
  ASSERT_EQ(index.MembersAt(fresh, cls, &members),
            SnapshotIndex::Lookup::kHit);
  EXPECT_EQ(members, std::vector<InstanceId>{id});
}

// --- Checkpoint restore ------------------------------------------------------

TEST(SnapshotRecoveryTest, RestoredExtentsMatchTheLockedPath) {
  const char* schema = R"(
    object class counter is
      attributes
        v : int;
    end object;
    object class tag is
      attributes
        label : string;
    end object;
  )";
  Database db;
  ASSERT_TRUE(db.LoadSchema(schema).ok());
  auto a = *db.Create("counter");
  ASSERT_TRUE(db.Create("tag").ok());
  // Created and deleted inside the retained window, before the
  // checkpoint position.
  auto gone = *db.Create("counter");
  ASSERT_TRUE(db.Set(gone, "v", Value::Int(3)).ok());
  ASSERT_TRUE(db.Delete(gone).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  // A tail past the checkpoint, replayed from the WAL.
  ASSERT_TRUE(db.Create("counter").ok());
  ASSERT_TRUE(db.Set(a, "v", Value::Int(9)).ok());

  Database recovered;
  ASSERT_TRUE(recovered.LoadSchema(schema).ok());
  ASSERT_TRUE(recovered.Recover(*db.disk()).ok());
  SnapshotIndex::Snapshot snap = recovered.AcquireSnapshot();
  for (const schema::ObjectClass* cls : recovered.catalog()->AllClasses()) {
    auto locked = recovered.InstancesOf(cls->name());
    ASSERT_TRUE(locked.ok());
    auto list = recovered.TryInstancesOfSnapshot(snap, cls->name());
    ASSERT_TRUE(list.has_value() && list->ok()) << cls->name();
    EXPECT_EQ(**list, *locked) << cls->name();
  }
  EXPECT_EQ(recovered.InstancesOf("counter")->size(), 2u);
}

// --- Pruning vs live snapshots ----------------------------------------------

TEST(SnapshotPruneTest, PruneNeverFreesALiveSnapshotsVersion) {
  DatabaseOptions opts;
  opts.version_prune_threshold = 4;
  opts.version_prune_slack = 1;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kCounterSchema).ok());
  auto id = *db.Create("counter");
  ASSERT_TRUE(db.Set(id, "v", Value::Int(7)).ok());

  SnapshotIndex::Snapshot held = db.AcquireSnapshot();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(db.Set(id, "v", Value::Int(100 + i)).ok());
    auto v = db.TryGetSnapshot(held, id, "v");
    ASSERT_TRUE(v.has_value() && v->ok())
        << "prune stole a live snapshot's version at commit " << i;
    EXPECT_EQ(**v, Value::Int(7));
  }
  // Retention really was bounded by the held snapshot, not unbounded.
  EXPECT_EQ(db.version_store().base(), held.seq());
  EXPECT_GT(db.version_store().pruned_deltas(), 0u);
  uint64_t frozen = db.version_store().pruned_deltas();

  // Releasing the snapshot lets the floor advance on the next commit.
  held.Release();
  ASSERT_TRUE(db.Set(id, "v", Value::Int(999)).ok());
  EXPECT_GT(db.version_store().pruned_deltas(), frozen);
  EXPECT_GT(db.snapshot_index().pruned_versions(), 0u);
}

TEST(SnapshotPruneTest, PrunedHistoryStillAnswersAtTheBase) {
  DatabaseOptions opts;
  opts.version_prune_threshold = 2;
  opts.version_prune_slack = 1;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kCounterSchema).ok());
  auto id = *db.Create("counter");
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(db.Set(id, "v", Value::Int(i)).ok());
  }
  // Everything up to end - slack was folded into base nodes, yet a fresh
  // snapshot still proves the current value from the fold.
  EXPECT_GT(db.version_store().base(), 0u);
  SnapshotIndex::Snapshot snap = db.AcquireSnapshot();
  auto v = db.TryGetSnapshot(snap, id, "v");
  ASSERT_TRUE(v.has_value() && v->ok());
  EXPECT_EQ(**v, Value::Int(15));
  // The extent survived the folds too.
  auto list = db.TryInstancesOfSnapshot(snap, "counter");
  ASSERT_TRUE(list.has_value() && list->ok());
  EXPECT_EQ((*list)->size(), 1u);
}

// --- The regression the feature exists for ----------------------------------

InstanceId MustParseObj(const std::string& payload) {
  uint64_t n = 0;
  if (std::sscanf(payload.c_str(), "obj(%" SCNu64 ")", &n) != 1) {
    ADD_FAILURE() << "not an obj payload: " << payload;
  }
  return InstanceId(n);
}

server::Response CallAdmitted(server::LoopbackTransport* client, SessionId s,
                              const std::string& text) {
  for (;;) {
    server::Response r = client->Call(s, text);
    if (!r.rejected()) return r;
    std::this_thread::yield();
  }
}

// A storm of read-only statements concurrent with a writer: the reads
// resolve on the snapshot path, so not one of them may raise a read
// mark that rejects a write. Before MVCC snapshot reads, this exact
// shape made E13 throughput *fall* with added workers.
TEST(SnapshotServerTest, ReadOnlyStormNeverAbortsAWriter) {
  core::Database db;
  ASSERT_TRUE(db.LoadSchema(kCounterSchema).ok());
  server::ServerOptions opts;
  opts.num_workers = 5;
  opts.max_queue_depth = 256;
  server::Executor exec(&db, opts);
  exec.Start();
  server::LoopbackTransport client(&exec);

  auto setup = *client.Connect();
  auto id = MustParseObj(client.Call(setup, "create counter as c").payload);
  const std::string obj = "obj(" + std::to_string(id.value) + ")";
  ASSERT_TRUE(client.Call(setup, "set " + obj + ".v = 0").ok());

  constexpr int kReaders = 4;
  constexpr int kReadsEach = 300;
  constexpr int kWrites = 40;

  std::atomic<bool> writer_done{false};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      auto s = *client.Connect();
      for (int i = 0; i < kReadsEach; ++i) {
        server::Response r = CallAdmitted(&client, s, "get " + obj + ".v");
        ASSERT_TRUE(r.ok()) << r.payload;
      }
      EXPECT_TRUE(client.Disconnect(s).ok());
    });
  }
  threads.emplace_back([&] {
    auto s = *client.Connect();
    for (int i = 0; i < kWrites; ++i) {
      // Auto-commit writes: any reader-induced timestamp conflict would
      // surface as an abort here, and there is no competing writer to
      // blame it on.
      server::Response r =
          CallAdmitted(&client, s, "set " + obj + ".v = v + 1");
      ASSERT_TRUE(r.ok()) << "reader aborted a writer: " << r.payload;
    }
    writer_done.store(true);
    EXPECT_TRUE(client.Disconnect(s).ok());
  });
  for (auto& th : threads) th.join();
  ASSERT_TRUE(writer_done.load());

  server::Response final = client.Call(setup, "get " + obj + ".v");
  ASSERT_TRUE(final.ok());
  EXPECT_EQ(final.payload, std::to_string(kWrites)) << "lost updates";

  // The load-bearing assertions: snapshot reads actually served the
  // storm, and not one write was rejected by concurrency control.
  EXPECT_GT(exec.stats().snapshot_reads.load(), 0u);
  EXPECT_EQ(db.cc_stats().write_rejections.load(), 0u);
  EXPECT_EQ(db.cc_stats().dirty_write_rejections.load(), 0u);
  EXPECT_EQ(exec.stats().txn_conflicts.load(), 0u);
  exec.Shutdown();
}

// Extent scans race the commit path: every commit creates or deletes
// counters in pairs, so a snapshot extent that saw half a commit (or
// lost an instance to a concurrent prune) would show an odd count.
TEST(SnapshotServerTest, ExtentScansNeverSeeATornCommit) {
  DatabaseOptions dbopts;
  dbopts.version_prune_threshold = 8;
  dbopts.version_prune_slack = 2;
  core::Database db(dbopts);
  ASSERT_TRUE(db.LoadSchema(kCounterSchema).ok());
  server::ServerOptions opts;
  opts.num_workers = 4;
  opts.max_queue_depth = 256;
  server::Executor exec(&db, opts);
  exec.Start();
  server::LoopbackTransport client(&exec);

  constexpr int kReaders = 3;
  constexpr int kReadsEach = 200;
  constexpr int kRounds = 30;
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      auto s = *client.Connect();
      for (int i = 0; i < kReadsEach; ++i) {
        const char* stmt = (i + t) % 2 == 0 ? "instances counter"
                                            : "select counter where v >= 0";
        // A miss falls back to the locked path, which reads live state
        // and may see the writer between its two creates; only a read
        // no fallback overlapped is certainly a snapshot answer.
        const uint64_t fallbacks = exec.stats().snapshot_fallbacks.load();
        server::Response r = CallAdmitted(&client, s, stmt);
        ASSERT_TRUE(r.ok()) << r.payload;
        unsigned long n = 1;
        ASSERT_EQ(std::sscanf(r.payload.c_str(), "count=%lu", &n), 1);
        if (exec.stats().snapshot_fallbacks.load() == fallbacks) {
          EXPECT_EQ(n % 2, 0u) << stmt << " saw a torn extent";
        }
      }
      EXPECT_TRUE(client.Disconnect(s).ok());
    });
  }
  threads.emplace_back([&] {
    auto s = *client.Connect();
    for (int i = 0; i < kRounds; ++i) {
      server::Response r = CallAdmitted(
          &client, s,
          i % 3 == 2 ? "begin; delete a; delete b; commit"
                     : "begin; create counter as a; create counter as b; "
                       "commit");
      ASSERT_TRUE(r.ok()) << r.payload;
    }
    EXPECT_TRUE(client.Disconnect(s).ok());
  });
  for (auto& th : threads) th.join();
  EXPECT_GT(exec.stats().snapshot_reads.load(), 0u);
  exec.Shutdown();
}

// Reads inside an open transaction keep full CC semantics: they are
// ineligible for the snapshot path (they must see their own writes and
// raise read marks), so the old conflict behaviour is preserved.
TEST(SnapshotServerTest, InTransactionReadsStillUseConcurrencyControl) {
  core::Database db;
  ASSERT_TRUE(db.LoadSchema(kCounterSchema).ok());
  server::ServerOptions opts;
  opts.num_workers = 0;  // deterministic: drain manually
  server::Executor exec(&db, opts);
  server::LoopbackTransport client(&exec);

  auto s = *client.Connect();
  auto call_on = [&](SessionId session, const std::string& text) {
    auto fut = client.Submit(session, text);
    while (exec.RunOne()) {
    }
    return fut.get();
  };
  auto call = [&](const std::string& text) { return call_on(s, text); };
  auto id = MustParseObj(call("create counter as c").payload);
  const std::string obj = "obj(" + std::to_string(id.value) + ")";
  ASSERT_TRUE(call("set " + obj + ".v = 1").ok());

  uint64_t before = exec.stats().snapshot_reads.load();
  ASSERT_TRUE(call("begin").ok());
  ASSERT_TRUE(call("set " + obj + ".v = v + 1").ok());
  // The in-transaction read observes the uncommitted write (2), which
  // no snapshot could prove.
  server::Response r = call("get " + obj + ".v");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.payload, "2");
  EXPECT_EQ(exec.stats().snapshot_reads.load(), before);
  ASSERT_TRUE(call("commit").ok());

  // A conflicting in-transaction read still aborts: a transaction that
  // began before a newer write committed may not read past it.
  auto old_session = *client.Connect();
  ASSERT_TRUE(call_on(old_session, "begin").ok());
  ASSERT_TRUE(call("set " + obj + ".v = 10").ok());
  const uint64_t conflicts = exec.stats().txn_conflicts.load();
  r = call_on(old_session, "get " + obj + ".v");
  EXPECT_EQ(r.status, server::ResponseStatus::kAborted) << r.payload;
  EXPECT_EQ(exec.stats().txn_conflicts.load(), conflicts + 1);
  EXPECT_EQ(exec.stats().snapshot_reads.load(), before);
  exec.Shutdown();
}

}  // namespace
}  // namespace cactis
