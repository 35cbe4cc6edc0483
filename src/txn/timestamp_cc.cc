#include "txn/timestamp_cc.h"

namespace cactis::txn {

Status TimestampManager::CheckRead(InstanceId id, uint64_t ts) {
  stats_.reads_checked.fetch_add(1, std::memory_order_relaxed);
  Marks& m = Entry(id);
  if (ts < m.write_ts.load(std::memory_order_relaxed)) {
    stats_.read_rejections.fetch_add(1, std::memory_order_relaxed);
    return Status::Conflict(
        "read of instance " + std::to_string(id.value) + " by txn ts " +
        std::to_string(ts) + " arrives after write ts " +
        std::to_string(m.write_ts.load(std::memory_order_relaxed)));
  }
  uint64_t cur = m.read_ts.load(std::memory_order_relaxed);
  while (ts > cur &&
         !m.read_ts.compare_exchange_weak(cur, ts,
                                          std::memory_order_relaxed)) {
  }
  return Status::OK();
}

SharedReadCheck TimestampManager::CheckReadShared(InstanceId id, uint64_t ts) {
  if (id.value >= marks_.size() || !marks_[id.value].known) {
    return SharedReadCheck::kUnknownInstance;
  }
  Marks& m = marks_[id.value];
  if (ts < m.write_ts.load(std::memory_order_relaxed)) {
    // The exclusive fallback re-runs CheckRead and counts the rejection.
    return SharedReadCheck::kConflict;
  }
  // Atomic max: concurrent readers may race here; whichever loses the CAS
  // reloads and retries, so the largest reader timestamp always sticks.
  uint64_t cur = m.read_ts.load(std::memory_order_relaxed);
  while (ts > cur &&
         !m.read_ts.compare_exchange_weak(cur, ts,
                                          std::memory_order_relaxed)) {
  }
  stats_.reads_checked.fetch_add(1, std::memory_order_relaxed);
  return SharedReadCheck::kOk;
}

Status TimestampManager::CheckWrite(InstanceId id, uint64_t ts,
                                    uint64_t txn) {
  stats_.writes_checked.fetch_add(1, std::memory_order_relaxed);
  Marks& m = Entry(id);
  if (m.pending_txn != 0 && m.pending_txn != txn) {
    // First-updater-wins: another transaction wrote this instance and has
    // not staged or rolled back yet. Admitting a second writer now could
    // let it commit first, putting its WAL entry *before* the first
    // writer's — replay would then finish on the older value.
    stats_.write_rejections.fetch_add(1, std::memory_order_relaxed);
    stats_.dirty_write_rejections.fetch_add(1, std::memory_order_relaxed);
    return Status::Conflict(
        "write of instance " + std::to_string(id.value) + " by txn " +
        std::to_string(txn) + ": txn " + std::to_string(m.pending_txn) +
        " holds an uncommitted write");
  }
  const uint64_t read_ts = m.read_ts.load(std::memory_order_relaxed);
  const uint64_t write_ts = m.write_ts.load(std::memory_order_relaxed);
  if (ts < read_ts || ts < write_ts) {
    stats_.write_rejections.fetch_add(1, std::memory_order_relaxed);
    return Status::Conflict(
        "write of instance " + std::to_string(id.value) + " by txn ts " +
        std::to_string(ts) + " conflicts (read ts " +
        std::to_string(read_ts) + ", write ts " + std::to_string(write_ts) +
        ")");
  }
  m.write_ts.store(ts, std::memory_order_relaxed);
  m.pending_txn = txn;
  return Status::OK();
}

void TimestampManager::ReleaseWrite(InstanceId id, uint64_t txn) {
  if (id.value < marks_.size() && marks_[id.value].pending_txn == txn) {
    marks_[id.value].pending_txn = 0;
  }
}

}  // namespace cactis::txn
