// Timestamp-ordering concurrency control.
//
// The paper (section 1.1) states Cactis "uses a timestamping concurrency
// control technique". We implement basic timestamp ordering at instance
// granularity: every transaction receives a start timestamp; each instance
// carries the largest read and write timestamps that touched it.
//
//   read(I)  by T: reject if ts(T) < write_ts(I); else read_ts = max(...)
//   write(I) by T: reject if ts(T) < read_ts(I) or ts(T) < write_ts(I);
//                  else write_ts = ts(T)
//
// A rejected operation aborts the transaction, which rolls back through
// its delta. (The classic Thomas write rule is deliberately not applied:
// derived-attribute propagation makes "ignore the write" unsound.)
//
// On top of basic TO, writes enforce a first-updater-wins rule: while a
// transaction has written an instance and is still open and *unstaged*
// (no WAL ticket yet), any other transaction's write to that instance is
// rejected. Without this, in-memory updates (applied eagerly at
// statement time) and WAL tickets (assigned at commit time) can order
// two writers oppositely; replaying the journal's absolute-value deltas
// in ticket order would then resurrect the older value after a crash —
// a lost acked update. Once the first writer stages, its ticket is
// fixed, so any later writer stages later and replay order matches
// apply order. The pending mark is released when the writer stages,
// commits without journaling, or rolls back.
//
// Thread model: a successful read is still a metadata *write* (it raises
// read_ts), so concurrent read-only statements running under the shared
// statement lock must not lose each other's updates — a lost read_ts max
// is a serializability hole, because a later writer would be admitted at
// a timestamp an unrecorded reader already observed past. The marks are
// therefore atomics: CheckReadShared raises read_ts with a CAS-max loop
// and is safe from any number of concurrent reader threads, while the
// table's shape (growth, an entry becoming known or forgotten) is only
// ever changed under the exclusive lock (CheckRead, CheckWrite, Ensure,
// Forget). Stats counters are atomics for the same reason.
//
// The marks live in a dense table indexed by instance id. Exclusive
// callers pass only ids of instances that exist (the database validates
// before checking), so the table never grows past the largest allocated
// id; the shared path never grows it at all.

#ifndef CACTIS_TXN_TIMESTAMP_CC_H_
#define CACTIS_TXN_TIMESTAMP_CC_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace cactis::txn {

struct ConcurrencyStats {
  std::atomic<uint64_t> reads_checked{0};
  std::atomic<uint64_t> writes_checked{0};
  std::atomic<uint64_t> read_rejections{0};
  std::atomic<uint64_t> write_rejections{0};
  std::atomic<uint64_t> dirty_write_rejections{0};

  void ExportTo(obs::MetricsGroup* g) const {
    g->AddCounter("reads_checked", reads_checked.load());
    g->AddCounter("writes_checked", writes_checked.load());
    g->AddCounter("read_rejections", read_rejections.load());
    g->AddCounter("write_rejections", write_rejections.load());
    g->AddCounter("dirty_write_rejections", dirty_write_rejections.load());
  }
};

/// Outcome of a lock-free read check on the shared statement path.
enum class SharedReadCheck {
  kOk,               // read admitted, read_ts raised
  kConflict,         // timestamp-order violation: abort the transaction
  kUnknownInstance,  // no marks entry: caller must fall back to exclusive
};

class TimestampManager {
 public:
  /// Issues a fresh, strictly increasing transaction timestamp.
  uint64_t BeginTransaction() { return clock_.Tick(); }

  /// Issues a timestamp without any transaction bookkeeping — used to
  /// stamp auto-commit reads on the shared statement path.
  uint64_t IssueTimestamp() { return clock_.Tick(); }

  /// Validates and records a read of `id` by a transaction with timestamp
  /// `ts`. Conflict means the transaction must abort. Exclusive-lock only
  /// (may create the marks entry; `id` must name an existing instance).
  Status CheckRead(InstanceId id, uint64_t ts);

  /// Lock-free read check for the shared statement path: never changes
  /// the table's shape, raises read_ts with an atomic max. On kConflict the
  /// caller is expected to retry under the exclusive lock (which recounts
  /// the stats), so only kOk is counted here.
  SharedReadCheck CheckReadShared(InstanceId id, uint64_t ts);

  /// Validates and records a write by transaction `txn` (first-updater-
  /// wins: rejects while another open, unstaged transaction holds a
  /// pending write on `id`). Exclusive-lock only; like CheckRead, `id`
  /// must name an existing instance.
  Status CheckWrite(InstanceId id, uint64_t ts, uint64_t txn);

  /// Drops `txn`'s pending-writer mark on `id`, admitting later writers.
  /// Called when the transaction stages its commit (WAL ticket fixed),
  /// commits without journaling, or rolls back. Exclusive-lock only.
  void ReleaseWrite(InstanceId id, uint64_t txn);

  /// Ensures `id` has a marks entry so the shared read path never misses
  /// it. Called at instance creation, under the exclusive lock.
  void Ensure(InstanceId id) { Entry(id); }

  /// Forgets an instance (deleted). Exclusive-lock only.
  void Forget(InstanceId id) {
    if (id.value < marks_.size()) marks_[id.value] = Marks();
  }

  /// Slots in the dense marks table (white-box: bounded by the largest
  /// instance id ever checked).
  size_t table_slots() const { return marks_.size(); }

  const ConcurrencyStats& stats() const { return stats_; }
  void ResetStats() {
    stats_.reads_checked.store(0);
    stats_.writes_checked.store(0);
    stats_.read_rejections.store(0);
    stats_.write_rejections.store(0);
    stats_.dirty_write_rejections.store(0);
  }

 private:
  struct Marks {
    std::atomic<uint64_t> read_ts{0};
    std::atomic<uint64_t> write_ts{0};
    // Transaction currently holding an unstaged write on this instance
    // (0 = none). Only touched under the exclusive statement lock, like
    // the table's shape, so a plain field suffices; the shared read path
    // never looks at it.
    uint64_t pending_txn = 0;
    // Whether the entry exists (a slot below the table's end may belong
    // to an id never checked or since forgotten).
    bool known = false;

    Marks() = default;
    // Moves and assignments happen only when the table grows or an
    // entry is reset, both under the exclusive lock with no reader
    // running, so plain loads and stores of the atomics suffice.
    Marks(Marks&& o) noexcept
        : read_ts(o.read_ts.load(std::memory_order_relaxed)),
          write_ts(o.write_ts.load(std::memory_order_relaxed)),
          pending_txn(o.pending_txn),
          known(o.known) {}
    Marks& operator=(Marks&& o) noexcept {
      read_ts.store(o.read_ts.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      write_ts.store(o.write_ts.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      pending_txn = o.pending_txn;
      known = o.known;
      return *this;
    }
  };

  /// The entry for `id`, created (and the table grown) if needed.
  /// Exclusive-lock only.
  Marks& Entry(InstanceId id) {
    if (id.value >= marks_.size()) marks_.resize(id.value + 1);
    Marks& m = marks_[id.value];
    m.known = true;
    return m;
  }

  LogicalClock clock_;
  // Indexed by InstanceId::value.
  std::vector<Marks> marks_;
  ConcurrencyStats stats_;
};

}  // namespace cactis::txn

#endif  // CACTIS_TXN_TIMESTAMP_CC_H_
