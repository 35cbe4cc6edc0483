// Session: per-client state of the service layer, and its manager.
//
// A Session owns what a connected client accumulates between requests:
//   * an open explicit transaction (`begin` ... `commit`/`abort`) whose
//     timestamp — issued by the core's TimestampManager — is the
//     session's identity for timestamp-ordering concurrency control;
//   * a binding table (`create task as t1` names live instance ids);
//   * a statement cursor (the id list produced by the last
//     select/instances/members, consumed by `fetch`);
//   * isolation bookkeeping: transactions begun / committed / rolled
//     back, and conflicts observed.
//
// The SessionManager creates, looks up and expires sessions. Lookup is
// guarded by the manager mutex; the per-session mutex serializes the
// batches of one session (two requests racing on one session execute one
// after the other). Expiry is cooperative: the executor calls
// ReapExpired() on its worker threads and disposes the corpses — which
// may hold open transactions that must roll back — under the database
// serialization mutex.

#ifndef CACTIS_SERVER_SESSION_H_
#define CACTIS_SERVER_SESSION_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "core/database.h"
#include "obs/request_context.h"

namespace cactis::server {

/// Cumulative per-session resource accounting, folded in after every
/// statement. All fields are relaxed atomics: workers add while the
/// metrics exporter reads without the session mutex. Exposed in the
/// "server" metrics group as a per_session JSON array.
struct SessionAccounting {
  std::atomic<uint64_t> statements{0};
  std::atomic<uint64_t> blocks_read{0};
  std::atomic<uint64_t> blocks_written{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> attrs_reevaluated{0};
  std::atomic<uint64_t> chunks_scheduled{0};
  std::atomic<uint64_t> wal_bytes{0};
  std::atomic<uint64_t> queue_wait_us{0};
  std::atomic<uint64_t> lock_wait_excl_us{0};
  std::atomic<uint64_t> exec_us{0};

  void Add(const obs::StatementCost& c) {
    auto add = [](std::atomic<uint64_t>& a, uint64_t v) {
      if (v != 0) a.fetch_add(v, std::memory_order_relaxed);
    };
    statements.fetch_add(1, std::memory_order_relaxed);
    add(blocks_read, c.blocks_read);
    add(blocks_written, c.blocks_written);
    add(cache_hits, c.cache_hits);
    add(cache_misses, c.cache_misses);
    add(attrs_reevaluated, c.attrs_reevaluated);
    add(chunks_scheduled, c.chunks_scheduled);
    add(wal_bytes, c.wal_bytes);
    add(queue_wait_us, c.queue_wait_us);
    add(lock_wait_excl_us, c.lock_wait_excl_us);
    add(exec_us, c.exec_us);
  }
};

struct Session {
  Session(SessionId sid, uint64_t now_ms)
      : id(sid), last_active_ms(now_ms) {}

  const SessionId id;

  /// Serializes request batches on this session and protects every field
  /// below. Lock order: session mutex before the executor's db mutex.
  std::mutex mu;

  /// Set once the session has been closed or expired; a worker that
  /// acquired the pointer before removal finds out here.
  bool closed = false;

  /// Set (without the session mutex) by the eager-close path when the
  /// client's connection died while a batch was executing on this
  /// session. The worker observes it at batch end and disposes the
  /// corpse itself — rolling back the open transaction immediately
  /// instead of letting it linger to idle-timeout.
  std::atomic<bool> disconnected{false};

  /// Open explicit transaction, if any. Its ts() is the session's
  /// current concurrency-control timestamp.
  std::unique_ptr<core::Transaction> txn;

  /// Name -> instance bindings (`create <class> as <name>`).
  std::unordered_map<std::string, InstanceId> bindings;

  /// Statement cursor: result of the last select/instances/members.
  std::vector<InstanceId> cursor;
  size_t cursor_pos = 0;

  // Isolation bookkeeping.
  uint64_t txns_begun = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;     // explicit `abort` plus consistency aborts
  uint64_t conflicts = 0;  // aborts caused by timestamp-ordering conflicts
  uint64_t last_ts = 0;    // timestamp of the current / most recent txn

  /// Statements executed on this session, feeding RequestContext's
  /// statement_seq (protected by the session mutex like the fields
  /// above).
  uint64_t statement_seq = 0;

  /// Cumulative cost accounting (atomics; see SessionAccounting).
  SessionAccounting acct;

  /// Last request activity, for timeout expiry. Atomic so the reaper can
  /// read it without the session mutex.
  std::atomic<uint64_t> last_active_ms;
};

class SessionManager {
 public:
  /// `timeout_ms` of 0 disables expiry.
  explicit SessionManager(uint64_t timeout_ms) : timeout_ms_(timeout_ms) {}

  /// Creates a session. Thread-safe.
  std::shared_ptr<Session> Open(uint64_t now_ms);

  /// Removes the session from the table and returns it (marked closed
  /// under its own mutex) for the caller to dispose — its transaction, if
  /// open, must be rolled back under the database mutex. Null when the
  /// id is unknown.
  std::shared_ptr<Session> Close(SessionId id);

  /// Looks the session up without expiry side effects. Thread-safe.
  std::shared_ptr<Session> Find(SessionId id);

  /// Eager close for connection teardown: removes the session from the
  /// table *immediately* (no new batch can find it). If the session is
  /// idle, it is marked closed and returned with *deferred = false; the
  /// caller disposes it (rolling back its transaction under the database
  /// mutex). If a batch is executing right now, the session's
  /// `disconnected` flag is set and the victim is returned with
  /// *deferred = true: the worker running the batch disposes the corpse
  /// the moment it finishes, and the caller must confirm with a bounded
  /// blocking wait (Executor::CloseSessionEager does). Unknown id:
  /// nullptr.
  std::shared_ptr<Session> EagerClose(SessionId id, bool* deferred);

  /// Removes every session idle past the timeout and returns the corpses
  /// for disposal. Sessions whose mutex is currently held (a batch is
  /// executing) are skipped — they are active by definition.
  ///
  /// Cheap on the hot path: a next-deadline watermark makes the common
  /// call (nothing can have expired yet) a single atomic load with no
  /// table scan and no manager lock.
  std::vector<std::shared_ptr<Session>> ReapExpired(uint64_t now_ms);

  /// Removes and returns every session (server shutdown). Waits for
  /// in-flight batches: each session is marked closed under its mutex.
  std::vector<std::shared_ptr<Session>> TakeAll();

  size_t active_count() const;

  /// Visits every live session under the manager mutex, in ascending id
  /// order (deterministic exports). `fn` must not call back into the
  /// manager and should only read atomic session fields — it runs while
  /// workers may be executing on those sessions.
  void ForEach(const std::function<void(const Session&)>& fn) const;

 private:
  const uint64_t timeout_ms_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;
  /// Earliest time any current session could expire, set by each full
  /// scan. ReapExpired returns immediately while now < watermark. 0
  /// (initial) forces the first scan. Conservative by construction:
  /// activity only pushes real deadlines later, never earlier.
  std::atomic<uint64_t> next_deadline_ms_{0};
};

}  // namespace cactis::server

#endif  // CACTIS_SERVER_SESSION_H_
