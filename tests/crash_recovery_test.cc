// Crash-point harness: a milestone-style workload is crashed at every
// disk-write index, the database is reopened and recovered from the
// surviving platter, and the recovered state must equal the state after
// exactly the transactions that were acknowledged before the crash.
//
// The WAL append is the acknowledgement point: an operation that returned
// OK is durable; one that returned an error is absent after recovery —
// never half-present.

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <vector>

#include "core/database.h"
#include "storage/fault_policy.h"

namespace cactis::core {
namespace {

const char* kSchema = R"(
  object class cell is
    relationships
      prev : chain multi socket;
      next : chain multi plug;
    attributes
      base : int;
      acc  : int;
    rules
      acc = begin
        t : int;
        t = base;
        for each p related to prev do
          t = t + p.acc;
        end;
        return t;
      end;
  end object;
)";

DatabaseOptions SmallOptions() {
  DatabaseOptions opts;
  opts.block_size = 256;     // small blocks: WAL chunks and data blocks mix
  opts.buffer_capacity = 2;  // force evictions, i.e. mid-workload writes
  return opts;
}

// Deterministic instance ids for the workload below: creation order is
// fixed, so a=1, b=2, c=3 in every run.
const InstanceId kA{1}, kB{2}, kC{3};

/// The workload: commits, version meta-actions, an undo, a history
/// truncation, and a delete. Each step is all-or-nothing at the WAL.
std::vector<std::function<Status(Database&)>> WorkloadSteps() {
  return {
      [](Database& db) -> Status {
        auto t = db.Begin();
        CACTIS_ASSIGN_OR_RETURN(InstanceId a, t->Create("cell"));
        CACTIS_RETURN_IF_ERROR(t->Set(a, "base", Value::Int(1)));
        return t->Commit();
      },
      [](Database& db) -> Status {
        auto t = db.Begin();
        CACTIS_ASSIGN_OR_RETURN(InstanceId b, t->Create("cell"));
        CACTIS_RETURN_IF_ERROR(t->Set(b, "base", Value::Int(2)));
        CACTIS_RETURN_IF_ERROR(t->Connect(b, "prev", kA, "next").status());
        return t->Commit();
      },
      [](Database& db) { return db.CreateVersion("v1").status(); },
      [](Database& db) { return db.Set(kA, "base", Value::Int(10)); },
      [](Database& db) { return db.UndoLast(); },
      [](Database& db) -> Status {
        auto t = db.Begin();
        CACTIS_ASSIGN_OR_RETURN(InstanceId c, t->Create("cell"));
        CACTIS_RETURN_IF_ERROR(t->Set(c, "base", Value::Int(3)));
        CACTIS_RETURN_IF_ERROR(t->Connect(c, "prev", kB, "next").status());
        return t->Commit();
      },
      [](Database& db) { return db.CreateVersion("v2").status(); },
      [](Database& db) { return db.CheckoutVersion("v1"); },
      // Committing while positioned at v1 truncates the redo tail (the c
      // transaction and the v2 version name disappear from history).
      [](Database& db) { return db.Set(kB, "base", Value::Int(20)); },
      [](Database& db) { return db.Delete(kA); },
  };
}

/// Everything observable about the database, as text: committed history
/// length, version names, and per-instance values and neighbours. Reads
/// go through Peek, so any lingering checksum error would surface here.
std::string Snapshot(Database* db) {
  std::ostringstream out;
  out << "commits=" << db->committed_transactions() << "\n";
  out << "versions=";
  for (const std::string& name : db->VersionNames()) out << name << ",";
  out << "\n";
  auto cells = db->InstancesOf("cell");
  if (!cells.ok()) return "InstancesOf failed: " + cells.status().ToString();
  for (InstanceId id : *cells) {
    out << "cell " << id.value;
    for (const char* attr : {"base", "acc"}) {
      auto v = db->Peek(id, attr);
      out << " " << attr << "=";
      if (v.ok()) {
        out << v->ToString();
      } else {
        out << "<" << v.status().ToString() << ">";
      }
    }
    for (const char* port : {"prev", "next"}) {
      auto neighbors = db->NeighborsOf(id, port);
      out << " " << port << "=[";
      if (neighbors.ok()) {
        for (InstanceId n : *neighbors) out << n.value << ",";
      }
      out << "]";
    }
    out << "\n";
  }
  return out.str();
}

/// The committed-prefix oracle: a clean run of the first `steps` steps.
std::string ReferenceSnapshot(size_t steps) {
  Database db(SmallOptions());
  EXPECT_TRUE(db.LoadSchema(kSchema).ok());
  auto workload = WorkloadSteps();
  for (size_t i = 0; i < steps && i < workload.size(); ++i) {
    Status s = workload[i](db);
    EXPECT_TRUE(s.ok()) << "reference step " << i << ": " << s.ToString();
  }
  return Snapshot(&db);
}

TEST(CrashRecoveryTest, WorkloadRunsCleanWithWalOn) {
  Database db(SmallOptions());
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());
  for (auto& step : WorkloadSteps()) {
    ASSERT_TRUE(step(db).ok());
  }
  ASSERT_NE(db.wal(), nullptr);
  EXPECT_GT(db.wal()->stats().entries_appended, 0u);
  // Final state: b alone, base 20 (a deleted, c truncated away).
  EXPECT_EQ(*db.Peek(kB, "acc"), Value::Int(20));
  EXPECT_EQ(db.instance_count(), 1u);
  EXPECT_EQ(db.VersionNames(), std::vector<std::string>{"v1"});
}

TEST(CrashRecoveryTest, RecoverRebuildsFromCleanPlatter) {
  Database crashed(SmallOptions());
  ASSERT_TRUE(crashed.LoadSchema(kSchema).ok());
  for (auto& step : WorkloadSteps()) ASSERT_TRUE(step(crashed).ok());

  Database recovered(SmallOptions());
  ASSERT_TRUE(recovered.LoadSchema(kSchema).ok());
  Status rs = recovered.Recover(*crashed.disk());
  ASSERT_TRUE(rs.ok()) << rs.ToString();
  EXPECT_EQ(Snapshot(&recovered), Snapshot(&crashed));
}

// Replay creates instances and edges with forced ids (undo, redo and
// WAL replay all do). The dense id-indexed tables may grow to those ids,
// but never past the allocation bound the replay raises.
TEST(CrashRecoveryTest, ForcedIdReplayKeepsDenseTablesWithinIdBound) {
  Database crashed(SmallOptions());
  ASSERT_TRUE(crashed.LoadSchema(kSchema).ok());
  for (auto& step : WorkloadSteps()) ASSERT_TRUE(step(crashed).ok());

  Database recovered(SmallOptions());
  ASSERT_TRUE(recovered.LoadSchema(kSchema).ok());
  ASSERT_TRUE(recovered.Recover(*crashed.disk()).ok());
  for (const Database* db : {&crashed, &recovered}) {
    const Database::DenseTableSlots slots = db->dense_table_slots();
    EXPECT_LE(slots.records, db->max_instance_id() + 1);
    EXPECT_LE(slots.instances, db->max_instance_id() + 1);
    EXPECT_LE(slots.cc_marks, db->max_instance_id() + 1);
    EXPECT_LE(slots.edge_stats, db->max_edge_id() + 1);
  }
  // Replay raised the bounds to exactly what the original allocated.
  EXPECT_EQ(recovered.max_instance_id(), crashed.max_instance_id());
  EXPECT_EQ(recovered.max_edge_id(), crashed.max_edge_id());
}

TEST(CrashRecoveryTest, RecoveryIsIdempotent) {
  // Recover a recovered database: the state must be a fixed point.
  Database original(SmallOptions());
  ASSERT_TRUE(original.LoadSchema(kSchema).ok());
  for (auto& step : WorkloadSteps()) ASSERT_TRUE(step(original).ok());

  Database first(SmallOptions());
  ASSERT_TRUE(first.LoadSchema(kSchema).ok());
  ASSERT_TRUE(first.Recover(*original.disk()).ok());

  Database second(SmallOptions());
  ASSERT_TRUE(second.LoadSchema(kSchema).ok());
  ASSERT_TRUE(second.Recover(*first.disk()).ok());

  EXPECT_EQ(Snapshot(&first), Snapshot(&second));
}

TEST(CrashRecoveryTest, RecoverRequiresFreshDatabase) {
  Database source(SmallOptions());
  ASSERT_TRUE(source.LoadSchema(kSchema).ok());
  ASSERT_TRUE(source.Create("cell").ok());

  Database dirty(SmallOptions());
  ASSERT_TRUE(dirty.LoadSchema(kSchema).ok());
  ASSERT_TRUE(dirty.Create("cell").ok());
  EXPECT_TRUE(dirty.Recover(*source.disk()).IsInvalidArgument());
}

TEST(CrashRecoveryTest, CrashAtEveryWriteIndexRecoversACommittedPrefix) {
  // How many writes does a fault-free run issue?
  uint64_t total_writes;
  {
    Database db(SmallOptions());
    ASSERT_TRUE(db.LoadSchema(kSchema).ok());
    for (auto& step : WorkloadSteps()) ASSERT_TRUE(step(db).ok());
    ASSERT_TRUE(db.Flush().ok());
    total_writes = db.disk()->write_attempts();
  }
  ASSERT_GT(total_writes, 10u);

  // Memoized oracle snapshots, keyed by acknowledged step count.
  std::vector<std::string> oracle(WorkloadSteps().size() + 1);
  std::vector<bool> oracle_ready(WorkloadSteps().size() + 1, false);

  for (uint64_t k = 0; k < total_writes; ++k) {
    SCOPED_TRACE("crash after write " + std::to_string(k));
    Database db(SmallOptions());
    storage::ScriptedFaults faults;
    faults.crash_after_writes = static_cast<int64_t>(k);
    db.disk()->set_fault_policy(&faults);
    ASSERT_TRUE(db.LoadSchema(kSchema).ok());

    // Run the workload over the crash; count acknowledged steps. Steps
    // stop succeeding at the crash and never succeed after it.
    size_t acked = 0;
    bool failed_before = false;
    for (auto& step : WorkloadSteps()) {
      if (step(db).ok()) {
        EXPECT_FALSE(failed_before)
            << "a step succeeded after an earlier step failed";
        ++acked;
      } else {
        failed_before = true;
      }
    }
    // A crash index can be unreachable in the faulted run: write 0 is the
    // WAL superblock (written in the constructor, before the policy is
    // installed) and the last indices belong to the final Flush, which a
    // crashed run never reaches. Those runs complete fully — and recovery
    // must then reproduce the complete state.
    if (acked < WorkloadSteps().size()) {
      EXPECT_TRUE(db.disk()->crashed());
    }

    // Reopen: fresh database, same schema, recover from the platter.
    Database reopened(SmallOptions());
    ASSERT_TRUE(reopened.LoadSchema(kSchema).ok());
    Status rs = reopened.Recover(*db.disk());
    if (!rs.ok()) {
      // Only legitimate when the crash predates the WAL superblock, in
      // which case nothing was ever acknowledged.
      EXPECT_TRUE(rs.IsNotFound()) << rs.ToString();
      EXPECT_EQ(acked, 0u);
    }

    if (!oracle_ready[acked]) {
      oracle[acked] = ReferenceSnapshot(acked);
      oracle_ready[acked] = true;
    }
    EXPECT_EQ(Snapshot(&reopened), oracle[acked]);
  }
}

/// Double-fault sweep: the RECOVERING database's own disk crashes at
/// every write index during Recover(). The source platter is read-only
/// to Recover, so no matter where the recovering side dies, a second
/// recovery from the original platter must still reproduce the
/// single-recovery state — a crash mid-recovery loses nothing.
void DoubleFaultSweep(const storage::SimulatedDisk& platter) {
  Database ref(SmallOptions());
  ASSERT_TRUE(ref.LoadSchema(kSchema).ok());
  ASSERT_TRUE(ref.Recover(platter).ok());
  const std::string want = Snapshot(&ref);
  // How many writes does a clean recovery issue on its own disk?
  const uint64_t recovery_writes = ref.disk()->write_attempts();
  ASSERT_GT(recovery_writes, 1u);

  for (uint64_t k = 0; k < recovery_writes; ++k) {
    SCOPED_TRACE("crash at recovery write " + std::to_string(k));
    Database victim(SmallOptions());
    storage::ScriptedFaults faults;
    faults.crash_after_writes = static_cast<int64_t>(k);
    victim.disk()->set_fault_policy(&faults);
    ASSERT_TRUE(victim.LoadSchema(kSchema).ok());
    Status rs = victim.Recover(platter);
    if (!rs.ok()) {
      EXPECT_TRUE(victim.disk()->crashed()) << rs.ToString();
    } else if (!victim.disk()->crashed()) {
      // Crash index unreachable (constructor writes predate the policy):
      // the recovery ran clean and must match the reference.
      EXPECT_EQ(Snapshot(&victim), want);
    }

    // The double fault: recover AGAIN, from the untouched original.
    Database again(SmallOptions());
    ASSERT_TRUE(again.LoadSchema(kSchema).ok());
    Status rs2 = again.Recover(platter);
    ASSERT_TRUE(rs2.ok()) << rs2.ToString();
    EXPECT_EQ(Snapshot(&again), want);
  }
}

TEST(CrashRecoveryTest, CrashDuringRecoveryThenRecoverAgainMatches) {
  Database original(SmallOptions());
  ASSERT_TRUE(original.LoadSchema(kSchema).ok());
  for (auto& step : WorkloadSteps()) ASSERT_TRUE(step(original).ok());
  DoubleFaultSweep(*original.disk());
}

TEST(CrashRecoveryTest, CrashDuringCheckpointedRecoveryThenRecoverAgainMatches) {
  // With a mid-workload checkpoint the recovery path is load-image +
  // replay-tail + self-checkpoint — more writes, all swept.
  Database original(SmallOptions());
  ASSERT_TRUE(original.LoadSchema(kSchema).ok());
  auto workload = WorkloadSteps();
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_TRUE(workload[i](original).ok());
    if (i + 1 == 6) {
      ASSERT_TRUE(original.Checkpoint().ok());
    }
  }
  DoubleFaultSweep(*original.disk());
}

}  // namespace
}  // namespace cactis::core
