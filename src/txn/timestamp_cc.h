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
// Thread model: every mark access runs under the service layer's one
// statement lock (lock-free snapshot reads never consult the marks), so
// the marks are plain fields. The stats counters are relaxed atomics so
// tests and benches may read them without the lock.
//
// The marks live in a dense table indexed by instance id, grown on the
// first check of an id. Callers pass only ids of instances that exist
// (the database validates before checking), so the table never grows
// past the largest allocated id.

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

class TimestampManager {
 public:
  /// Issues a fresh, strictly increasing transaction timestamp.
  uint64_t BeginTransaction() { return clock_.Tick(); }

  /// Validates and records a read of `id` by a transaction with timestamp
  /// `ts`. Conflict means the transaction must abort. May create the
  /// marks entry; `id` must name an existing instance.
  Status CheckRead(InstanceId id, uint64_t ts);

  /// Validates and records a write by transaction `txn` (first-updater-
  /// wins: rejects while another open, unstaged transaction holds a
  /// pending write on `id`). Like CheckRead, `id` must name an existing
  /// instance.
  Status CheckWrite(InstanceId id, uint64_t ts, uint64_t txn);

  /// Drops `txn`'s pending-writer mark on `id`, admitting later writers.
  /// Called when the transaction stages its commit (WAL ticket fixed),
  /// commits without journaling, or rolls back.
  void ReleaseWrite(InstanceId id, uint64_t txn);

  /// Forgets an instance (deleted).
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
    uint64_t read_ts = 0;
    uint64_t write_ts = 0;
    // Transaction currently holding an unstaged write on this instance
    // (0 = none).
    uint64_t pending_txn = 0;
  };

  /// The entry for `id`, growing the table to it if needed.
  Marks& Entry(InstanceId id) {
    if (id.value >= marks_.size()) marks_.resize(id.value + 1);
    return marks_[id.value];
  }

  LogicalClock clock_;
  // Indexed by InstanceId::value.
  std::vector<Marks> marks_;
  ConcurrencyStats stats_;
};

}  // namespace cactis::txn

#endif  // CACTIS_TXN_TIMESTAMP_CC_H_
