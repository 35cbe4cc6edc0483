// Transactions: commit, the Undo meta-action, destructor-abort, delta
// bookkeeping, and timestamp-ordering concurrency control (multi-user
// interleavings).

#include <gtest/gtest.h>

#include "core/database.h"
#include "txn/timestamp_cc.h"

namespace cactis::core {
namespace {

const char* kSchema = R"(
  object class doc is
    relationships
      refs : cites multi plug;
      cited_by : cites multi socket;
    attributes
      title : string;
      words : int;
      cited_words : int;
    rules
      cited_words = begin
        t : int = 0;
        for each d related to cited_by do
          t = t + d.words;
        end;
        return t;
      end;
  end object;
)";

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(db_.LoadSchema(kSchema).ok()); }
  Database db_;
};

TEST_F(TxnTest, CommitMakesDeltaPermanent) {
  auto t = db_.Begin();
  auto id = t->Create("doc");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(t->Set(*id, "words", Value::Int(100)).ok());
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_FALSE(t->open());
  EXPECT_EQ(*db_.Get(*id, "words"), Value::Int(100));
  EXPECT_GT(db_.delta_bytes(), 0u);
}

TEST_F(TxnTest, ExplicitUndoRollsEverythingBack) {
  auto base = *db_.Create("doc");
  ASSERT_TRUE(db_.Set(base, "words", Value::Int(1)).ok());

  auto t = db_.Begin();
  auto extra = *t->Create("doc");
  ASSERT_TRUE(t->Set(base, "words", Value::Int(99)).ok());
  ASSERT_TRUE(t->Connect(base, "refs", extra, "cited_by").ok());
  ASSERT_TRUE(t->Undo().ok());

  // "No actions need have permanent effect."
  EXPECT_EQ(*db_.Get(base, "words"), Value::Int(1));
  EXPECT_FALSE(db_.Get(extra, "words").ok());  // creation undone
  EXPECT_TRUE(db_.NeighborsOf(base, "refs")->empty());
  EXPECT_EQ(db_.InstancesOf("doc")->size(), 1u);
}

TEST_F(TxnTest, DestructorAbortsOpenTransaction) {
  auto base = *db_.Create("doc");
  {
    auto t = db_.Begin();
    ASSERT_TRUE(t->Set(base, "words", Value::Int(42)).ok());
    // no commit: destructor must roll back
  }
  EXPECT_EQ(*db_.Get(base, "words"), Value::Int(0));
}

TEST_F(TxnTest, CommitOnAbortedTransactionFails) {
  auto t = db_.Begin();
  ASSERT_TRUE(t->Undo().ok());
  EXPECT_TRUE(t->Commit().IsTransactionAborted());
}

TEST_F(TxnTest, UndoLastRevertsCommittedTransaction) {
  auto id = *db_.Create("doc");
  ASSERT_TRUE(db_.Set(id, "words", Value::Int(7)).ok());
  ASSERT_TRUE(db_.UndoLast().ok());  // undo the Set
  EXPECT_EQ(*db_.Get(id, "words"), Value::Int(0));
  ASSERT_TRUE(db_.UndoLast().ok());  // undo the Create
  EXPECT_FALSE(db_.Get(id, "words").ok());
  EXPECT_FALSE(db_.UndoLast().ok());  // history empty
}

TEST_F(TxnTest, UndoRestoresDerivedRipple) {
  auto a = *db_.Create("doc");
  auto b = *db_.Create("doc");
  ASSERT_TRUE(db_.Connect(a, "refs", b, "cited_by").ok());
  ASSERT_TRUE(db_.Set(a, "words", Value::Int(10)).ok());
  EXPECT_EQ(*db_.Get(b, "cited_words"), Value::Int(10));
  ASSERT_TRUE(db_.Set(a, "words", Value::Int(20)).ok());
  EXPECT_EQ(*db_.Get(b, "cited_words"), Value::Int(20));
  ASSERT_TRUE(db_.UndoLast().ok());
  // The derived value is restored by recomputation, not by logging.
  EXPECT_EQ(*db_.Get(b, "cited_words"), Value::Int(10));
}

TEST_F(TxnTest, DeltaSizeIndependentOfRippleSize) {
  // Paper section 3: "the information needed to remember a delta is
  // proportional in size to the initial changes made to the database
  // rather than the total change ... because of derived data."
  auto hub = *db_.Create("doc");
  std::vector<InstanceId> readers;
  for (int i = 0; i < 50; ++i) {
    auto r = *db_.Create("doc");
    readers.push_back(r);
    ASSERT_TRUE(db_.Connect(hub, "refs", r, "cited_by").ok());
    ASSERT_TRUE(db_.Get(r, "cited_words").ok());  // subscribe: big ripple
  }
  size_t before = db_.delta_bytes();
  ASSERT_TRUE(db_.Set(hub, "words", Value::Int(123)).ok());
  size_t delta = db_.delta_bytes() - before;
  // One intrinsic write, independent of the 50-attribute ripple.
  EXPECT_LT(delta, 128u);
}

TEST_F(TxnTest, TimestampConflictAbortsLateWriter) {
  auto id = *db_.Create("doc");
  auto t1 = db_.Begin();  // older timestamp
  auto t2 = db_.Begin();  // newer timestamp
  // t2 reads the instance, setting its read timestamp forward.
  ASSERT_TRUE(t2->Get(id, "words").ok());
  // t1 (older) now tries to write: timestamp ordering rejects it.
  auto s = t1->Set(id, "words", Value::Int(5));
  EXPECT_TRUE(s.IsTransactionAborted()) << s;
  EXPECT_TRUE(t1->aborted());
  ASSERT_TRUE(t2->Commit().ok());
}

TEST_F(TxnTest, LateReadAfterNewerWriteAborts) {
  auto id = *db_.Create("doc");
  auto t1 = db_.Begin();
  auto t2 = db_.Begin();
  ASSERT_TRUE(t2->Set(id, "words", Value::Int(9)).ok());
  auto v = t1->Get(id, "words");
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsTransactionAborted());
  ASSERT_TRUE(t2->Commit().ok());
  EXPECT_EQ(*db_.Get(id, "words"), Value::Int(9));
}

TEST_F(TxnTest, NonConflictingTransactionsInterleave) {
  auto a = *db_.Create("doc");
  auto b = *db_.Create("doc");
  auto t1 = db_.Begin();
  auto t2 = db_.Begin();
  ASSERT_TRUE(t1->Set(a, "words", Value::Int(1)).ok());
  ASSERT_TRUE(t2->Set(b, "words", Value::Int(2)).ok());
  ASSERT_TRUE(t1->Commit().ok());
  ASSERT_TRUE(t2->Commit().ok());
  EXPECT_EQ(*db_.Get(a, "words"), Value::Int(1));
  EXPECT_EQ(*db_.Get(b, "words"), Value::Int(2));
}

TEST_F(TxnTest, ConcurrencyCanBeDisabled) {
  DatabaseOptions opts;
  opts.timestamp_cc = false;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());
  auto id = *db.Create("doc");
  auto t1 = db.Begin();
  auto t2 = db.Begin();
  ASSERT_TRUE(t2->Get(id, "words").ok());
  EXPECT_TRUE(t1->Set(id, "words", Value::Int(5)).ok());  // allowed now
  ASSERT_TRUE(t1->Commit().ok());
  ASSERT_TRUE(t2->Commit().ok());
}

TEST(TimestampManagerTest, UnitRules) {
  txn::TimestampManager tsm;
  uint64_t t1 = tsm.BeginTransaction();
  uint64_t t2 = tsm.BeginTransaction();
  ASSERT_GT(t2, t1);
  InstanceId x(1);
  EXPECT_TRUE(tsm.CheckRead(x, t2).ok());
  EXPECT_TRUE(tsm.CheckWrite(x, t2, 2).ok());
  // The same transaction may write x again while its commit is pending.
  EXPECT_TRUE(tsm.CheckWrite(x, t2, 2).ok());
  // Older transaction can no longer read or write x.
  EXPECT_TRUE(tsm.CheckRead(x, t1).IsConflict());
  EXPECT_TRUE(tsm.CheckWrite(x, t1, 1).IsConflict());
  EXPECT_EQ(tsm.stats().read_rejections, 1u);
  EXPECT_EQ(tsm.stats().write_rejections, 1u);
  // First-updater-wins: even a newer transaction is rejected while txn
  // 2's write on x is unstaged...
  uint64_t t3 = tsm.BeginTransaction();
  EXPECT_TRUE(tsm.CheckWrite(x, t3, 3).IsConflict());
  EXPECT_EQ(tsm.stats().dirty_write_rejections, 2u);
  // ...and admitted once the pending write is released.
  tsm.ReleaseWrite(x, 2);
  EXPECT_TRUE(tsm.CheckWrite(x, t3, 3).ok());
  // Forgotten instances reset, including the pending-writer mark.
  tsm.Forget(x);
  EXPECT_TRUE(tsm.CheckWrite(x, t1, 1).ok());
}

// The read mark keeps the maximum of every admitted read, whatever order
// the readers arrive in: after interleaved reads with timestamps 1..N,
// a writer older than the newest read must conflict and a newer one be
// admitted. A lost max would let a stale writer slip underneath a read
// that already observed past it.
TEST(TimestampManagerTest, ReadMarksKeepTheMax) {
  txn::TimestampManager tsm;
  const InstanceId id(7);
  constexpr uint64_t kReaders = 8;
  constexpr uint64_t kPerReader = 500;
  // Reader r issues timestamps r+1, r+1+kReaders, ...; visiting the
  // readers back to front each round makes every round's reads arrive in
  // descending order, so the mark is both raised and left alone.
  for (uint64_t i = 0; i < kPerReader; ++i) {
    for (uint64_t r = kReaders; r-- > 0;) {
      EXPECT_TRUE(tsm.CheckRead(id, i * kReaders + r + 1).ok());
    }
  }
  const uint64_t max_ts = kPerReader * kReaders;
  EXPECT_EQ(tsm.stats().reads_checked, max_ts);
  EXPECT_EQ(tsm.stats().read_rejections, 0u);
  // Any writer older than the newest read must be rejected...
  EXPECT_TRUE(tsm.CheckWrite(id, max_ts - 1, 1).IsConflict());
  EXPECT_TRUE(tsm.CheckWrite(id, 1, 2).IsConflict());
  // ...and a newer writer admitted.
  EXPECT_TRUE(tsm.CheckWrite(id, max_ts + 1, 3).ok());
}

}  // namespace
}  // namespace cactis::core
