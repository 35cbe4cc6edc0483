// Closed-loop service benchmark for Cactis.
//
// One process starts the real server stack in-process (core::Database ->
// server::Executor with 2 workers -> net::TcpServer on loopback), all
// on one CPU, and drives it with at most 4 client threads, one
// net::Client connection each. Every client sends its next request only
// after the previous reply arrived (closed loop). Three workloads
// (README.md):
//
//   read_mostly      one client over 4096 counters fitting the 64-block
//                    buffer pool; 85% get v / 10% get twice (derived) /
//                    5% RMW commit.
//   write_contended  4 clients over the same counters; 80% RMW commits,
//                    15% get v, 5% get twice, half the ops on a 64-key hot
//                    set.
//   derived_rebuild  one client over a layered cell DAG (8 x 512, fan-in 3)
//                    several times larger than the pool: set a root's base,
//                    then peek a sink's derived acc.
//
// Device model: every block write sleeps 100 us, reads cost CPU only.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--write-latency-us US] [--spans PATH]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced slices (every statement wrapped in
// `profile`), derives the per-layer metrics from the traced slices and
// from before/after deltas of the layers' public stats, and writes the
// recorded spans to --spans. Every reply is checked against
// the benchmark's own model; any violation makes the run exit 1. The
// last line of stdout is the result JSON.

#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/rng.h"
#include "core/database.h"
#include "histogram.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "net/wire.h"
#include "server/executor.h"
#include "server/statement.h"

namespace perfbench {
namespace {

using namespace cactis;
using Clock = std::chrono::steady_clock;

constexpr size_t kServerWorkers = 2;
constexpr size_t kMaxClients = 4;
// The measured window is cut into quarters, so the log can compare the
// throughput of the first and the last.
constexpr int kQuarters = 4;
// Servers and databases built per run: at least kMinSetups, and more
// until they took kMinSetupSeconds, so that a set-up of a fraction of a
// second is timed over a span that one stall on a shared host does not
// dominate. setup_s is their median.
constexpr size_t kMinSetups = 5;
constexpr double kMinSetupSeconds = 2;
// Spans kept per run, and request/response pairs kept for the codec and
// parser replays: bounded so a traced run's memory stays flat.
constexpr size_t kSpanRequestCap = 5000;
constexpr size_t kCapturePerThread = 4096;

uint64_t NsSince(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Set-up or harness failure: no result line. Exits without unwinding,
/// so server threads still running cannot hold the process up.
[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(nullptr);
  std::_Exit(2);
}

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Fail(what + ": " + s.ToString());
}

// --- Minimal readers for the `profile` JSON payload --------------------------

bool JsonUint(std::string_view json, std::string_view key, uint64_t* out) {
  std::string pat = "\"" + std::string(key) + "\":";
  size_t p = json.find(pat);
  if (p == std::string_view::npos) return false;
  p += pat.size();
  uint64_t v = 0;
  bool any = false;
  while (p < json.size() && json[p] >= '0' && json[p] <= '9') {
    v = v * 10 + static_cast<uint64_t>(json[p] - '0');
    ++p;
    any = true;
  }
  if (any) *out = v;
  return any;
}

bool JsonString(std::string_view json, std::string_view key,
                std::string* out) {
  std::string pat = "\"" + std::string(key) + "\":\"";
  size_t p = json.find(pat);
  if (p == std::string_view::npos) return false;
  out->clear();
  for (p += pat.size(); p < json.size(); ++p) {
    char c = json[p];
    if (c == '"') return true;
    if (c == '\\' && p + 1 < json.size()) {
      c = json[++p];
      if (c == 'n') c = '\n';
      if (c == 't') c = '\t';
    }
    out->push_back(c);
  }
  return false;
}

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

std::string Obj(uint64_t id) { return "obj(" + std::to_string(id) + ")"; }

bool ParseObj(const std::string& s, uint64_t* id) {
  return std::sscanf(s.c_str(), "obj(%" SCNu64 ")", id) == 1;
}

// --- The server under test ----------------------------------------------------

/// One in-process server stack. Members are destroyed in reverse order:
/// transport, then executor, then database.
struct Env {
  core::Database db;
  server::Executor exec;
  net::TcpServer tcp;

  static server::ServerOptions Options() {
    server::ServerOptions o;
    o.num_workers = kServerWorkers;
    return o;
  }

  explicit Env(uint64_t write_latency_us)
      : db(core::DatabaseOptions{}),
        exec(&db, Options()),
        tcp(&exec, net::TcpServerOptions{}) {
    db.disk()->set_write_latency_us(write_latency_us);
  }

  void Start() {
    exec.Start();
    Check(tcp.Start(), "tcp server start");
  }
  void Stop() {
    tcp.Shutdown();
    exec.Shutdown();
  }
};

net::ClientOptions ClientOpts(uint16_t port) {
  net::ClientOptions o;
  o.port = port;
  o.request_timeout_ms = 60'000;
  return o;
}

// --- Layer counters (before/after deltas) -------------------------------------

enum Ctr {
  kDiskReads,
  kDiskWrites,
  kPoolHits,
  kPoolMisses,
  kPoolEvictions,
  kAttrsMarked,
  kMarkVisits,
  kRuleEvals,
  kChunksRun,
  kPendingRuns,
  kWalBlocks,
  kWalBytes,
  kWalBatches,
  kWalBatchedEntries,
  kSnapshotReads,
  kFastPathReads,
  kFastPathFallbacks,
  kRequestsRejected,
  kNetBytes,
  kNumCtr,
};
using Counters = std::array<uint64_t, kNumCtr>;

/// Reads every layer's public stats. Only called while no request is in
/// flight (between phases), when the single-threaded core is quiescent.
Counters Snap(Env* env) {
  Counters c{};
  const core::Database& db = env->db;
  c[kDiskReads] = db.disk_stats().reads;
  c[kDiskWrites] = db.disk_stats().writes;
  c[kPoolHits] = db.buffer_stats().hits;
  c[kPoolMisses] = db.buffer_stats().misses;
  c[kPoolEvictions] = db.buffer_stats().evictions;
  c[kAttrsMarked] = db.eval_stats().attrs_marked;
  c[kMarkVisits] = db.eval_stats().mark_visits;
  c[kRuleEvals] = db.eval_stats().rule_evaluations;
  c[kChunksRun] = db.scheduler_stats().chunks_run;
  c[kPendingRuns] = db.scheduler_stats().pending_runs;
  if (const txn::WriteAheadLog* wal = db.wal()) {
    c[kWalBlocks] = wal->stats().blocks_written;
    c[kWalBytes] = wal->stats().bytes_logged;
    c[kWalBatches] = wal->stats().group_batches;
    c[kWalBatchedEntries] = wal->stats().group_batched_entries;
  }
  const server::ServerStats& s = env->exec.stats();
  c[kSnapshotReads] = s.snapshot_reads.load();
  c[kFastPathReads] = s.fast_path_reads.load();
  c[kFastPathFallbacks] = s.fast_path_fallbacks.load();
  c[kRequestsRejected] = s.requests_rejected.load();
  c[kNetBytes] =
      env->tcp.stats().bytes_received.load() + env->tcp.stats().bytes_sent.load();
  return c;
}

void AddDelta(Counters* sum, const Counters& before, const Counters& after) {
  for (size_t i = 0; i < kNumCtr; ++i) {
    (*sum)[i] += after[i] > before[i] ? after[i] - before[i] : 0;
  }
}

// --- Per-thread results ----------------------------------------------------------

enum Op { kRead = 0, kDerivedRead = 1, kCommit = 2, kNumOps = 3 };
constexpr const char* kOpName[kNumOps] = {"read", "derived_read", "commit"};

struct Span {
  uint64_t trace = 0;
  Op op = kRead;
  uint64_t start_ns = 0;  // since the run's time origin
  uint64_t rtt_ns = 0;
  uint64_t queue_us = 0;
  uint64_t exec_us = 0;
};

struct Results {
  uint64_t attempted = 0, completed = 0, failed = 0;
  // Retries by cause (each one is a repeated request).
  uint64_t reconnects = 0, conflict_retries = 0, admission_retries = 0,
           unavailable_retries = 0;
  uint64_t violations = 0;
  std::string first_violation;
  // The two audits that must read zero: increments acknowledged but missing
  // from the final counters, and derived values that differ from the
  // model. Both are also violations.
  uint64_t lost_updates = 0, derived_mismatches = 0;
  // Operations completed inside the measured window: latency of every
  // one, and the count by quarter of the window.
  std::array<Histogram, kNumOps> latency_ns;
  std::array<uint64_t, kQuarters> quarter_ops{};
  std::array<uint64_t, kNumOps> op_count{};  // every completed op
  // Traced slices only.
  uint64_t traced_requests = 0;
  Histogram queue_us, outside_ns, lock_wait_excl_us;
  std::array<Histogram, kNumOps> exec_us;
  // Summed self times of the spans below a client span.
  uint64_t self_net_ns = 0, self_queue_us = 0, self_exec_us = 0;
  uint64_t derived_stmt_exec_us = 0, derived_rule_evals = 0;
  uint64_t trace_id_mismatches = 0;
  std::vector<Span> spans;
  // Untraced request/response pairs kept for the codec and parse replays.
  std::vector<std::pair<net::RequestPayload, net::WireResponse>> frames;

  void Violation(const std::string& what) {
    if (violations++ == 0) first_violation = what;
  }

  void Merge(Results&& o) {
    attempted += o.attempted;
    completed += o.completed;
    failed += o.failed;
    reconnects += o.reconnects;
    conflict_retries += o.conflict_retries;
    admission_retries += o.admission_retries;
    unavailable_retries += o.unavailable_retries;
    if (violations == 0 && o.violations != 0) {
      first_violation = o.first_violation;
    }
    violations += o.violations;
    lost_updates += o.lost_updates;
    derived_mismatches += o.derived_mismatches;
    for (int i = 0; i < kNumOps; ++i) {
      latency_ns[i].Merge(o.latency_ns[i]);
      exec_us[i].Merge(o.exec_us[i]);
    }
    for (int k = 0; k < kQuarters; ++k) quarter_ops[k] += o.quarter_ops[k];
    for (int i = 0; i < kNumOps; ++i) op_count[i] += o.op_count[i];
    traced_requests += o.traced_requests;
    queue_us.Merge(o.queue_us);
    outside_ns.Merge(o.outside_ns);
    self_net_ns += o.self_net_ns;
    self_queue_us += o.self_queue_us;
    self_exec_us += o.self_exec_us;
    lock_wait_excl_us.Merge(o.lock_wait_excl_us);
    derived_stmt_exec_us += o.derived_stmt_exec_us;
    derived_rule_evals += o.derived_rule_evals;
    trace_id_mismatches += o.trace_id_mismatches;
    for (Span& s : o.spans) {
      if (spans.size() < kSpanRequestCap) spans.push_back(s);
    }
    for (auto& f : o.frames) frames.push_back(std::move(f));
  }
};

/// Outcome of one benchmark operation (one request, retried as needed).
struct Reply {
  bool ok = false;
  /// A mutation whose connection died mid-request: it may or may not
  /// have committed.
  bool uncertain = false;
  /// Per-statement result text (unwrapped from `profile` when traced).
  std::vector<std::string> values;
};

/// One closed-loop stretch of every client.
struct PhaseSpec {
  double seconds = 0;
  bool traced = false;   // wrap every statement in `profile`
  bool capture = false;  // keep request/response pairs for the replays
  bool measured = false;  // record latencies and quarter throughput
};

/// One client thread's connection plus its accounting for a phase.
class LoadGen {
 public:
  LoadGen(net::Client* client, uint64_t seed, Clock::time_point origin,
         Clock::time_point phase_start, const PhaseSpec& spec, Results* out)
      : client_(client),
        rng_(seed),
        origin_(origin),
        phase_start_(phase_start),
        spec_(spec),
        out_(out) {
    retry_.max_attempts = 32;
    retry_.base_us = 50;
    retry_.max_us = 2'000;
    retry_.jitter_seed = seed ^ 0x5eed;
  }

  Rng& rng() { return rng_; }
  Results* results() { return out_; }

  Reply Send(Op op, const std::vector<std::string>& statements,
              bool mutation) {
    std::vector<std::string> wire = statements;
    if (spec_.traced) {
      for (std::string& s : wire) s = "profile " + s;
    }
    ++out_->attempted;
    Reply reply;
    Backoff backoff(retry_);
    std::optional<net::WireResponse> resp;
    Clock::time_point a0, a1;
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      if (!client_->connected()) {
        if (!client_->Connect().ok()) {
          if (!backoff.ShouldRetry()) break;
          ++out_->reconnects;
          continue;
        }
      }
      a0 = Clock::now();
      auto r = client_->Call(wire);
      a1 = Clock::now();
      if (!r.ok()) {
        // The connection is gone. A mutation's fate is unknown, so it is
        // never blindly repeated.
        if (mutation) {
          reply.uncertain = true;
          break;
        }
        if (!backoff.ShouldRetry()) break;
        ++out_->reconnects;
        continue;
      }
      if (r->ok()) {
        resp = std::move(*r);
        break;
      }
      uint64_t* cause = r->rejected() ? &out_->admission_retries
                        : r->aborted() ? &out_->conflict_retries
                        : r->code == net::WireCode::kDegraded ||
                                r->status == server::ResponseStatus::kUnavailable
                            ? &out_->unavailable_retries
                            : nullptr;
      if (cause == nullptr) {
        out_->Violation("statement error: " + r->payload);
        break;
      }
      if (!backoff.ShouldRetry()) break;
      ++*cause;
    }
    const Clock::time_point t1 = Clock::now();
    if (!resp) {
      ++out_->failed;
      return reply;
    }
    reply.ok = true;
    ++out_->completed;
    ++out_->op_count[op];
    // Operations still in flight at the deadline count for correctness
    // but not for the measured figures.
    const double share = NsSince(phase_start_, t1) / (spec_.seconds * 1e9);
    if (spec_.measured && share < 1) {
      out_->latency_ns[op].Add(NsSince(t0, t1));
      ++out_->quarter_ops[static_cast<size_t>(kQuarters * share)];
    }
    for (const net::WireStatementResult& s : resp->statements) {
      if (!spec_.traced) {
        reply.values.push_back(s.text);
        continue;
      }
      std::string v;
      JsonString(s.text, "result", &v);
      reply.values.push_back(std::move(v));
    }
    if (spec_.traced) RecordTrace(op, *resp, a0, a1);
    if (spec_.capture && out_->frames.size() < kCapturePerThread) {
      out_->frames.emplace_back(
          net::RequestPayload{client_->last_trace_id(), wire}, *resp);
    }
    return reply;
  }

 private:
  void RecordTrace(Op op, const net::WireResponse& resp, Clock::time_point a0,
                   Clock::time_point a1) {
    ++out_->traced_requests;
    const uint64_t rtt = NsSince(a0, a1);
    const uint64_t server_ns = (resp.queue_wait_us + resp.exec_us) * 1000;
    const uint64_t outside = rtt > server_ns ? rtt - server_ns : 0;
    out_->queue_us.Add(resp.queue_wait_us);
    out_->exec_us[op].Add(resp.exec_us);
    out_->outside_ns.Add(outside);
    out_->self_net_ns += outside;
    out_->self_queue_us += resp.queue_wait_us;
    out_->self_exec_us += resp.exec_us;
    for (size_t i = 0; i < resp.statements.size(); ++i) {
      const std::string& js = resp.statements[i].text;
      uint64_t trace = 0, excl = 0, evals = 0, exec = 0;
      if (!JsonUint(js, "trace_id", &trace) ||
          trace != client_->last_trace_id() + i) {
        ++out_->trace_id_mismatches;
      }
      JsonUint(js, "lock_wait_excl_us", &excl);
      JsonUint(js, "attrs_reevaluated", &evals);
      JsonUint(js, "exec_us", &exec);
      if (op == kCommit) out_->lock_wait_excl_us.Add(excl);
      if (op == kDerivedRead) {
        out_->derived_stmt_exec_us += exec;
        out_->derived_rule_evals += evals;
      }
    }
    if (out_->spans.size() < kSpanRequestCap) {
      out_->spans.push_back(Span{client_->last_trace_id(), op,
                                 NsSince(origin_, a0), rtt,
                                 resp.queue_wait_us, resp.exec_us});
    }
  }

  net::Client* client_;
  Rng rng_;
  Clock::time_point origin_, phase_start_;
  PhaseSpec spec_;
  Results* out_;
  BackoffPolicy retry_;
};

// --- Workloads -------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual size_t clients() const = 0;
  /// Builds the database over `c` (schema, objects, warm-up). Resets the
  /// workload's own model first, so it may be called once per set-up.
  virtual void Populate(net::Client* c) = 0;
  /// One closed-loop step of one client.
  virtual void Step(LoadGen* d) = 0;
  /// Re-reads the whole database and checks it against the model.
  virtual void Audit(net::Client* c, Results* r) = 0;
  virtual size_t live_objects() const = 0;
  virtual double reorganize_ms() const { return 0; }
};

/// Sends `statements` in batches of `batch`, each inside begin/commit
/// when `txn`, and returns every statement's result text.
std::vector<std::string> RunBatches(net::Client* c,
                                    const std::vector<std::string>& statements,
                                    size_t batch, bool txn,
                                    const char* what) {
  std::vector<std::string> out;
  out.reserve(statements.size());
  for (size_t i = 0; i < statements.size(); i += batch) {
    std::vector<std::string> req;
    if (txn) req.push_back("begin");
    const size_t end = std::min(statements.size(), i + batch);
    req.insert(req.end(), statements.begin() + i, statements.begin() + end);
    if (txn) req.push_back("commit");
    auto r = c->CallRetry(req);
    if (!r.ok()) Fail(std::string(what) + ": " + r.status().ToString());
    if (!r->ok()) Fail(std::string(what) + ": " + r->payload);
    for (size_t k = txn ? 1 : 0; k < r->statements.size() - (txn ? 1 : 0);
         ++k) {
      out.push_back(r->statements[k].text);
    }
  }
  return out;
}

/// read_mostly and write_contended: counters with an intrinsic `v` and a
/// derived `twice`. The audit state tracks, per counter, increments sent
/// and acknowledged, so every read can be bounded and the final values
/// checked for lost updates.
class CounterWorkload : public Workload {
 public:
  struct Mix {
    int read_pct, derived_pct;  // the rest are RMW commits
    int hot_pct;                // share of ops on the hot set
    size_t hot_keys;
  };

  static constexpr size_t kObjects = 4096;
  static constexpr const char* kSchema = R"(
    object class counter is
      attributes
        v : int;
        twice : int;
      rules
        twice = v * 2;
    end object;
  )";

  CounterWorkload(Mix mix, size_t clients) : mix_(mix), clients_(clients) {}

  size_t clients() const override { return clients_; }
  size_t live_objects() const override { return kObjects; }

  void Populate(net::Client* c) override {
    Check(c->LoadSchema(kSchema), "load schema");
    refs_.clear();
    sent_ = std::make_unique<std::atomic<uint64_t>[]>(kObjects);
    acked_ = std::make_unique<std::atomic<uint64_t>[]>(kObjects);
    uncertain_ = std::make_unique<std::atomic<uint64_t>[]>(kObjects);
    std::vector<std::string> creates(kObjects, "create counter");
    for (const std::string& ref : RunBatches(c, creates, 128, true, "create")) {
      uint64_t id = 0;
      if (!ParseObj(ref, &id)) Fail("unexpected create reply: " + ref);
      refs_.push_back(Obj(id));
    }
    std::vector<std::string> zero;
    for (const std::string& ref : refs_) zero.push_back("set " + ref + ".v = 0");
    RunBatches(c, zero, 128, true, "seed values");
  }

  void Step(LoadGen* d) override {
    Rng& rng = d->rng();
    const size_t j = static_cast<int>(rng.Uniform(100)) < mix_.hot_pct
                         ? rng.Uniform(mix_.hot_keys)
                         : rng.Uniform(kObjects);
    const int dice = static_cast<int>(rng.Uniform(100));
    if (dice < mix_.read_pct + mix_.derived_pct) {
      const bool derived = dice >= mix_.read_pct;
      const uint64_t lo = acked_[j].load();
      Reply r = d->Send(derived ? kDerivedRead : kRead,
                         {"get " + refs_[j] + (derived ? ".twice" : ".v")},
                         false);
      const uint64_t hi = sent_[j].load();
      if (!r.ok) return;
      int64_t got = 0;
      if (r.values.size() != 1 || !ParseInt(r.values[0], &got) ||
          (derived && got % 2 != 0)) {
        d->results()->Violation("malformed read of " + refs_[j]);
        return;
      }
      const int64_t v = derived ? got / 2 : got;
      if (v < static_cast<int64_t>(lo) || v > static_cast<int64_t>(hi)) {
        if (derived) ++d->results()->derived_mismatches;
        d->results()->Violation(refs_[j] + (derived ? ".twice" : ".v") +
                                " read " + std::to_string(got) +
                                " outside acknowledged [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "]");
      }
      return;
    }
    sent_[j].fetch_add(1);
    Reply r = d->Send(kCommit,
                       {"begin", "set " + refs_[j] + ".v = v + 1", "commit"},
                       true);
    if (r.ok) {
      acked_[j].fetch_add(1);
    } else if (r.uncertain) {
      uncertain_[j].fetch_add(1);
    }
  }

  void Audit(net::Client* c, Results* r) override {
    std::vector<std::string> gets;
    for (const std::string& ref : refs_) {
      gets.push_back("get " + ref + ".v");
      gets.push_back("get " + ref + ".twice");
    }
    std::vector<std::string> vals = RunBatches(c, gets, 256, false, "audit");
    uint64_t lost = 0, phantom = 0;
    for (size_t j = 0; j < kObjects; ++j) {
      int64_t v = 0, twice = 0;
      if (!ParseInt(vals[2 * j], &v) || !ParseInt(vals[2 * j + 1], &twice)) {
        r->Violation("malformed audit read of " + refs_[j]);
        continue;
      }
      const int64_t acked = static_cast<int64_t>(acked_[j].load());
      const int64_t maybe = static_cast<int64_t>(uncertain_[j].load());
      if (v < acked) lost += static_cast<uint64_t>(acked - v);
      if (v > acked + maybe) phantom += static_cast<uint64_t>(v - acked - maybe);
      if (twice != 2 * v) {
        ++r->derived_mismatches;
        r->Violation(refs_[j] + ".twice = " + std::to_string(twice) +
                     " but v = " + std::to_string(v));
      }
    }
    r->lost_updates += lost;
    if (lost != 0) r->Violation("lost_updates = " + std::to_string(lost));
    if (phantom != 0) {
      r->Violation("unacknowledged increments applied: " +
                   std::to_string(phantom));
    }
  }

 private:
  Mix mix_;
  size_t clients_;
  std::vector<std::string> refs_;
  std::unique_ptr<std::atomic<uint64_t>[]> sent_, acked_, uncertain_;
};

/// derived_rebuild: the paper's make-style case. A layered DAG of cells
/// whose `acc` sums `base` over every upstream cell; the benchmark keeps
/// the DAG and all base values, so every acc it reads has one right
/// answer. Sinks are read with `peek`, the make-style polling read: a
/// `get` would mark every sink important, and each commit would then
/// eagerly re-evaluate a root's whole downstream cone (about 1100 rules)
/// instead of leaving the work to the next read.
class DagWorkload : public Workload {
 public:
  static constexpr int kLayers = 8, kWidth = 512, kFanIn = 3;
  static constexpr size_t kCells = static_cast<size_t>(kLayers) * kWidth;
  static constexpr uint64_t kShapeSeed = 0xDA6;
  static constexpr const char* kSchema = R"(
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

  explicit DagWorkload(uint64_t seed) : seed_(seed) {}

  size_t clients() const override { return 1; }
  size_t live_objects() const override { return kCells; }
  double reorganize_ms() const override { return reorganize_ms_; }

  void Populate(net::Client* c) override {
    Check(c->LoadSchema(kSchema), "load schema");
    // The DAG's shape is part of the workload, fixed for every seed: cone
    // sizes, and so the cost of a rebuild, differ from one random DAG to
    // the next. The seed picks the base values and the operations.
    Rng shape(kShapeSeed);
    parents_.assign(kCells, {});
    for (size_t i = kWidth; i < kCells; ++i) {
      const size_t layer_start = (i / kWidth - 1) * kWidth;
      std::vector<size_t>& p = parents_[i];
      while (p.size() < kFanIn) {
        size_t cand = layer_start + shape.Uniform(kWidth);
        if (std::find(p.begin(), p.end(), cand) == p.end()) p.push_back(cand);
      }
    }
    Rng values(seed_ * 0x9e3779b97f4a7c15ull + 17);
    base_.assign(kCells, 0);
    for (size_t i = 0; i < kCells; ++i) base_[i] = values.UniformInt(1, 100);
    Recompute();

    refs_.clear();
    std::vector<std::string> creates(kCells, "create cell");
    for (const std::string& ref : RunBatches(c, creates, 128, true, "create")) {
      uint64_t id = 0;
      if (!ParseObj(ref, &id)) Fail("unexpected create reply: " + ref);
      refs_.push_back(Obj(id));
    }
    std::vector<std::string> build;
    for (size_t i = 0; i < kCells; ++i) {
      build.push_back("set " + refs_[i] + ".base = " + std::to_string(base_[i]));
    }
    for (size_t i = kWidth; i < kCells; ++i) {
      for (size_t p : parents_[i]) {
        build.push_back("connect " + refs_[i] + ".prev to " + refs_[p] +
                        ".next");
      }
    }
    RunBatches(c, build, 128, true, "build dag");

    // Warm: evaluate every sink once (checking it), then cluster the
    // database on the access statistics that produced.
    Results warm;
    CheckSinks(c, &warm);
    if (warm.violations != 0) Fail("warm-up: " + warm.first_violation);
    const Clock::time_point t0 = Clock::now();
    auto r = c->CallRetry({"reorganize"});
    reorganize_ms_ = NsSince(t0, Clock::now()) / 1e6;
    if (!r.ok() || !r->ok()) Fail("reorganize failed");
  }

  void Step(LoadGen* d) override {
    Rng& rng = d->rng();
    const size_t root = roots_.Next(rng);
    const int64_t value = rng.UniformInt(1, 1000);
    Reply set = d->Send(
        kCommit, {"set " + refs_[root] + ".base = " + std::to_string(value)},
        true);
    if (set.ok) {
      base_[root] = value;
      Recompute();
    } else if (set.uncertain) {
      // Resynchronise the model with whatever the server kept.
      Reply re = d->Send(kRead, {"get " + refs_[root] + ".base"}, false);
      int64_t v = 0;
      if (re.ok && ParseInt(re.values[0], &v)) {
        base_[root] = v;
        Recompute();
      } else {
        d->results()->Violation("cannot resync " + refs_[root]);
      }
    }

    const size_t sink = kCells - kWidth + sinks_.Next(rng);
    Reply r = d->Send(kDerivedRead, {"peek " + refs_[sink] + ".acc"}, false);
    if (!r.ok) return;
    int64_t got = 0;
    if (r.values.size() != 1 || !ParseInt(r.values[0], &got) ||
        got != acc_[sink]) {
      ++d->results()->derived_mismatches;
      d->results()->Violation(refs_[sink] + ".acc read " +
                              (r.values.empty() ? "" : r.values[0]) +
                              ", model says " + std::to_string(acc_[sink]));
    }
  }

  void Audit(net::Client* c, Results* r) override { CheckSinks(c, r); }

 private:
  void Recompute() {
    acc_ = base_;
    for (size_t i = kWidth; i < kCells; ++i) {
      for (size_t p : parents_[i]) acc_[i] += acc_[p];
    }
  }

  void CheckSinks(net::Client* c, Results* r) {
    std::vector<std::string> gets;
    for (size_t i = kCells - kWidth; i < kCells; ++i) {
      gets.push_back("peek " + refs_[i] + ".acc");
    }
    std::vector<std::string> vals = RunBatches(c, gets, 32, false, "sinks");
    for (size_t k = 0; k < vals.size(); ++k) {
      const size_t i = kCells - kWidth + k;
      int64_t got = 0;
      if (!ParseInt(vals[k], &got) || got != acc_[i]) {
        ++r->derived_mismatches;
        r->Violation(refs_[i] + ".acc = " + vals[k] + ", model says " +
                     std::to_string(acc_[i]));
      }
    }
  }

  /// Draws 0..kWidth-1 in shuffled rounds: every cell of a layer is
  /// picked once before any is picked again. Cone sizes, and so the cost
  /// of a step, differ widely between cells; drawing each equally often
  /// keeps a run's medians from following which cells its seed favoured.
  class ShuffledRounds {
   public:
    size_t Next(Rng& rng) {
      if (next_ == order_.size()) {
        order_.resize(kWidth);
        for (size_t i = 0; i < kWidth; ++i) order_[i] = i;
        for (size_t i = kWidth - 1; i > 0; --i) {
          std::swap(order_[i], order_[rng.Uniform(i + 1)]);
        }
        next_ = 0;
      }
      return order_[next_++];
    }

   private:
    std::vector<size_t> order_;
    size_t next_ = 0;
  };

  uint64_t seed_;
  ShuffledRounds roots_, sinks_;
  std::vector<std::vector<size_t>> parents_;
  std::vector<int64_t> base_, acc_;
  std::vector<std::string> refs_;
  double reorganize_ms_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       size_t clients) {
  // One client: its round trip is the net and server path alone, with no
  // wait behind other clients' requests on the one CPU.
  if (name == "read_mostly") {
    return std::make_unique<CounterWorkload>(
        CounterWorkload::Mix{85, 10, 0, 1}, 1);
  }
  if (name == "write_contended") {
    return std::make_unique<CounterWorkload>(
        CounterWorkload::Mix{15, 5, 50, 64}, clients);
  }
  if (name == "derived_rebuild") return std::make_unique<DagWorkload>(seed);
  return nullptr;
}

// --- Phases ----------------------------------------------------------------------

struct PhaseResult {
  Results results;
  double seconds = 0;
};

/// Runs every client closed-loop for `seconds` and merges their results.
PhaseResult RunPhase(Workload* w,
                     std::vector<std::unique_ptr<net::Client>>* clients,
                     uint64_t seed, uint64_t phase_index,
                     Clock::time_point origin, const PhaseSpec& spec) {
  std::vector<Results> per(clients->size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::nanoseconds(static_cast<int64_t>(spec.seconds * 1e9));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients->size(); ++t) {
    threads.emplace_back([&, t] {
      LoadGen d((*clients)[t].get(),
               seed * 1000003 + phase_index * 131 + t + 1, origin, start,
               spec, &per[t]);
      while (Clock::now() < deadline) w->Step(&d);
    });
  }
  for (std::thread& th : threads) th.join();
  PhaseResult out;
  out.seconds = NsSince(start, Clock::now()) / 1e9;
  for (Results& r : per) out.results.Merge(std::move(r));
  return out;
}

// --- Replays for the codec and parser costs --------------------------------------

server::Response ToServerResponse(const net::WireResponse& w) {
  server::Response r;
  r.status = w.status;
  r.payload = w.payload;
  r.metrics.queue_wait_us = w.queue_wait_us;
  r.metrics.exec_us = w.exec_us;
  r.metrics.session_ts = w.session_ts;
  r.metrics.statements_run = w.statements_run;
  for (const net::WireStatementResult& s : w.statements) {
    server::StatementResult sr;
    sr.status = net::StatusFromWireCode(s.code, s.code == net::WireCode::kOk
                                                    ? ""
                                                    : s.text);
    if (s.code == net::WireCode::kOk) sr.payload = s.text;
    r.statements.push_back(std::move(sr));
  }
  return r;
}

/// Nanoseconds per request to encode, frame, reassemble and decode both
/// the request and its response, replaying captured traffic.
double CodecNsPerOp(
    const std::vector<std::pair<net::RequestPayload, net::WireResponse>>& fr) {
  if (fr.empty()) return 0;
  std::vector<server::Response> responses;
  for (const auto& f : fr) responses.push_back(ToServerResponse(f.second));
  uint64_t ops = 0, sink = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1 = t0;
  while (NsSince(t0, t1) < 200'000'000) {
    for (size_t i = 0; i < fr.size(); ++i) {
      net::FrameReader in, back;
      in.Feed(net::EncodeFrame(net::FrameType::kRequest, 1,
                               net::EncodeRequestPayload(fr[i].first)));
      auto req = in.Next();
      if (!req || !net::DecodeRequestPayload(req->payload).ok()) {
        Fail("codec replay: request did not round-trip");
      }
      back.Feed(net::EncodeFrame(net::FrameType::kResponse, 1,
                                 net::EncodeResponsePayload(responses[i])));
      auto resp = back.Next();
      if (!resp) Fail("codec replay: response did not round-trip");
      auto decoded = net::DecodeResponsePayload(resp->payload);
      if (!decoded.ok()) Fail("codec replay: response did not decode");
      sink += decoded->statements.size();
    }
    ops += fr.size();
    t1 = Clock::now();
  }
  if (sink == 0) Fail("codec replay: empty responses");
  return Ratio(static_cast<double>(NsSince(t0, t1)), static_cast<double>(ops));
}

double ParseNsPerStatement(
    const std::vector<std::pair<net::RequestPayload, net::WireResponse>>& fr) {
  std::vector<std::string> stmts;
  for (const auto& f : fr) {
    for (const std::string& s : f.first.statements) stmts.push_back(s);
  }
  if (stmts.empty()) return 0;
  uint64_t n = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1 = t0;
  while (NsSince(t0, t1) < 200'000'000) {
    for (const std::string& s : stmts) {
      if (!server::ParseStatement(s).ok()) Fail("parse replay: " + s);
    }
    n += stmts.size();
    t1 = Clock::now();
  }
  return Ratio(static_cast<double>(NsSince(t0, t1)), static_cast<double>(n));
}

// --- Output ----------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
  std::string base;  // what the figure is computed from, for the log
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::ofstream f(path, std::ios::trunc);
  if (!f) Fail("cannot write spans to " + path);
  // Four spans per request. The client span is the measured round trip;
  // its children are the server's queue wait and execution (reported in
  // the response) and the remainder spent in the client library, the
  // kernel and the transport. Only durations are measured on the server,
  // so the children are laid out back to back from the client start.
  for (const Span& s : spans) {
    const uint64_t start_us = s.start_ns / 1000;
    const uint64_t rtt_us = s.rtt_ns / 1000;
    const uint64_t server_us = s.queue_us + s.exec_us;
    const uint64_t net_us = rtt_us > server_us ? rtt_us - server_us : 0;
    const std::string client = std::string("client.") + kOpName[s.op];
    auto line = [&](const std::string& name, const char* parent,
                    uint64_t start, uint64_t dur) {
      f << "{\"trace\":" << s.trace << ",\"name\":\"" << name
        << "\",\"parent\":" << (parent ? std::string("\"") + parent + "\"" : "null")
        << ",\"start_us\":" << start << ",\"dur_us\":" << dur << "}\n";
    };
    line(client, nullptr, start_us, rtt_us);
    line("net.remainder", client.c_str(), start_us, net_us);
    line("server.queue_wait", client.c_str(), start_us + net_us, s.queue_us);
    line("server.exec", client.c_str(), start_us + net_us + s.queue_us,
         s.exec_us);
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t write_latency_us = 100;
  std::string spans;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + k);
    std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--write-latency-us")
      a.write_latency_us = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--spans") a.spans = v;
    else Fail("unknown argument " + k);
  }
  if (a.seconds <= 0) Fail("--seconds must be positive");
  return a;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

int Run(const Args& args) {
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  std::unique_ptr<Workload> w =
      MakeWorkload(args.workload, args.seed, std::min(kMaxClients, nproc));
  if (!w) Fail("unknown workload '" + args.workload + "'");
  const Clock::time_point origin = Clock::now();

  // Set-up: start a server and build the database several times from
  // scratch. setup_s is the median; the last build is the one measured.
  std::vector<double> setup_s, reorg_ms;
  std::unique_ptr<Env> env;
  std::unique_ptr<net::Client> admin;
  for (double spent = 0;
       setup_s.size() < kMinSetups || spent < kMinSetupSeconds;) {
    if (env) {
      admin->Close();
      env->Stop();
      env.reset();
      // Hand the torn-down database's heap back, so the peak RSS reflects
      // one database rather than how the allocator fragmented across
      // set-ups.
      malloc_trim(0);
    }
    const Clock::time_point t0 = Clock::now();
    env = std::make_unique<Env>(args.write_latency_us);
    env->Start();
    admin = std::make_unique<net::Client>(ClientOpts(env->tcp.port()));
    Check(admin->Connect(), "connect");
    w->Populate(admin.get());
    setup_s.push_back(NsSince(t0, Clock::now()) / 1e9);
    spent += setup_s.back();
    reorg_ms.push_back(w->reorganize_ms());
  }

  std::vector<std::unique_ptr<net::Client>> clients;
  for (size_t t = 0; t < w->clients(); ++t) {
    clients.push_back(
        std::make_unique<net::Client>(ClientOpts(env->tcp.port())));
    Check(clients.back()->Connect(), "client connect");
  }

  // Warm-up: unmeasured, but every reply is still checked.
  Results all, measured, audit;
  uint64_t phase = 0;
  all.Merge(RunPhase(w.get(), &clients, args.seed, phase++, origin,
                     {.seconds = std::min(1.0, args.seconds / 10)})
                .results);

  Counters layer{};
  double measured_s = 0;
  double untraced_ops = 0, untraced_s = 0, traced_ops = 0, traced_s = 0;
  if (!args.trace) {
    const Counters before = Snap(env.get());
    PhaseResult p = RunPhase(
        w.get(), &clients, args.seed, phase++, origin,
        {.seconds = args.seconds, .measured = true});
    AddDelta(&layer, before, Snap(env.get()));
    measured_s = p.seconds;
    measured = std::move(p.results);
  } else {
    // Untraced and traced slices alternate, so drift over the run
    // affects both sides of the overhead figure alike.
    for (int slice = 0; slice < 4; ++slice) {
      const bool traced = slice % 2 == 1;
      const Counters before = Snap(env.get());
      PhaseResult p = RunPhase(
          w.get(), &clients, args.seed, phase++, origin,
          {.seconds = args.seconds / 4, .traced = traced, .capture = !traced});
      if (traced) {
        AddDelta(&layer, before, Snap(env.get()));
        traced_ops += p.results.completed;
        traced_s += p.seconds;
        measured_s += p.seconds;
        measured.Merge(std::move(p.results));
      } else {
        untraced_ops += p.results.completed;
        untraced_s += p.seconds;
        all.Merge(std::move(p.results));
      }
    }
  }

  for (auto& c : clients) c->Close();
  w->Audit(admin.get(), &audit);
  admin->Close();
  env->Stop();
  const double fill_pct = env->db.cluster_stats().fill_factor * 100;
  const uint64_t delta_bytes = env->db.delta_bytes();
  // The object store's blocks only: the log and checkpoint blocks follow
  // the run length and the version-prune cycle, not the data.
  const double stored_bytes = static_cast<double>(env->db.block_count()) *
                              static_cast<double>(env->db.disk()->block_size());

  uint64_t in_window = 0;
  std::array<double, kQuarters> quarter{};
  for (int k = 0; k < kQuarters; ++k) {
    in_window += measured.quarter_ops[k];
    quarter[k] = measured.quarter_ops[k] / (args.seconds / kQuarters);
  }

  std::vector<Metric> metrics;
  const uint64_t violations =
      all.violations + measured.violations + audit.violations;
  const uint64_t lost_updates =
      all.lost_updates + measured.lost_updates + audit.lost_updates;
  const uint64_t derived_mismatches = all.derived_mismatches +
                                      measured.derived_mismatches +
                                      audit.derived_mismatches;
  std::string first = !measured.first_violation.empty() ? measured.first_violation
                      : !all.first_violation.empty()    ? all.first_violation
                                                         : audit.first_violation;

  const double ops = static_cast<double>(measured.completed);
  const uint64_t commits = measured.op_count[kCommit];
  const uint64_t derived_reads = measured.op_count[kDerivedRead];
  const std::string ops_base = std::to_string(measured.completed) + " ops";
  const std::string commit_base = std::to_string(commits) + " commits";
  const std::string dread_base = std::to_string(derived_reads) + " derived reads";

  if (!args.trace) {
    metrics.push_back({"setup_s", "s", Median(setup_s),
                       "median of " + std::to_string(setup_s.size()) +
                           " set-ups"});
    metrics.push_back({"throughput_ops_s", "1/s", in_window / args.seconds,
                       std::to_string(in_window) + " ops completed in " +
                           Num(args.seconds) + " s"});
    // Only the figures that stay steady on a shared host are gated
    // (README.md); every quantile is in the log below.
    for (Op op : {kDerivedRead, kCommit}) {
      const Histogram& h = measured.latency_ns[op];
      metrics.push_back({std::string(kOpName[op]) + "_p50_us", "us",
                         h.Quantile(0.5) / 1e3,
                         "n=" + std::to_string(h.count())});
    }
    metrics.push_back({"completed_ops_frac", "frac",
                       Ratio(ops, static_cast<double>(measured.attempted)),
                       ops_base + " / " + std::to_string(measured.attempted) +
                           " attempted"});
    metrics.push_back({"peak_rss_mb", "MiB", PeakRssMb(), "getrusage"});
    metrics.push_back({"stored_bytes_per_object", "B",
                       stored_bytes / static_cast<double>(w->live_objects()),
                       Num(stored_bytes) + " B / " +
                           std::to_string(w->live_objects()) + " objects"});
  } else {
    const double reads = static_cast<double>(
        layer[kSnapshotReads] + layer[kFastPathReads] +
        layer[kFastPathFallbacks]);
    const double pool_refs =
        static_cast<double>(layer[kPoolHits] + layer[kPoolMisses]);
    auto per_op = [&](Ctr c) { return Ratio(layer[c], ops); };
    metrics = {
        {"net.rtt_outside_server_p50_us", "us",
         measured.outside_ns.Quantile(0.5) / 1e3,
         "n=" + std::to_string(measured.outside_ns.count())},
        {"net.bytes_per_op", "B", per_op(kNetBytes), ops_base},
        {"net.codec_ns_per_op", "ns", CodecNsPerOp(all.frames),
         std::to_string(all.frames.size()) + " captured requests"},
        {"net.reconnects_per_op", "count",
         Ratio(measured.reconnects, ops), ops_base},
        {"server.queue_wait_p50_us", "us", double(measured.queue_us.Quantile(0.5)),
         "n=" + std::to_string(measured.queue_us.count())},
        {"server.queue_wait_p99_us", "us", double(measured.queue_us.Quantile(0.99)),
         "n=" + std::to_string(measured.queue_us.count())},
    };
    for (int op = 0; op < kNumOps; ++op) {
      metrics.push_back({std::string("server.exec_p50_us.") + kOpName[op], "us",
                         double(measured.exec_us[op].Quantile(0.5)),
                         "n=" + std::to_string(measured.exec_us[op].count())});
    }
    const std::vector<Metric> more = {
        {"server.parse_ns_per_stmt", "ns", ParseNsPerStatement(all.frames),
         "captured statements"},
        {"server.snapshot_read_frac", "frac",
         Ratio(layer[kSnapshotReads], reads), Num(reads) + " reads"},
        {"server.shared_tier_reads_per_op", "count",
         per_op(kFastPathReads), ops_base},
        {"server.lock_wait_excl_p99_us", "us",
         double(measured.lock_wait_excl_us.Quantile(0.99)),
         "n=" + std::to_string(measured.lock_wait_excl_us.count()) +
             " commit statements"},
        {"server.rejects_per_op", "count", per_op(kRequestsRejected), ops_base},
        {"txn.conflict_retries_per_commit", "count",
         Ratio(measured.conflict_retries, commits), commit_base},
        {"txn.wal_blocks_per_commit", "count", Ratio(layer[kWalBlocks], commits),
         commit_base},
        {"txn.wal_entries_per_batch", "count",
         Ratio(layer[kWalBatchedEntries], layer[kWalBatches]),
         std::to_string(layer[kWalBatches]) + " batches"},
        {"txn.wal_bytes_per_commit", "B", Ratio(layer[kWalBytes], commits),
         commit_base},
        {"txn.delta_bytes_retained", "B", double(delta_bytes),
         "at end of run"},
        {"core.rule_evals_per_derived_read", "count",
         Ratio(layer[kRuleEvals], derived_reads), dread_base},
        {"core.useful_eval_frac", "frac",
         Ratio(layer[kRuleEvals], layer[kAttrsMarked]),
         std::to_string(layer[kAttrsMarked]) + " attrs marked"},
        {"core.exec_us_per_rule_eval", "us",
         Ratio(measured.derived_stmt_exec_us, measured.derived_rule_evals),
         std::to_string(measured.derived_rule_evals) +
             " evaluations in derived reads"},
        {"core.mark_visits_per_commit", "count",
         Ratio(layer[kMarkVisits], commits), commit_base},
        {"sched.chunks_per_derived_read", "count",
         Ratio(layer[kChunksRun], derived_reads), dread_base},
        {"sched.pending_run_frac", "frac",
         Ratio(layer[kPendingRuns], layer[kChunksRun]),
         std::to_string(layer[kChunksRun]) + " chunks"},
        {"storage.pool_hit_rate", "frac", Ratio(layer[kPoolHits], pool_refs),
         Num(pool_refs) + " pool references"},
        {"storage.disk_reads_per_op", "count", per_op(kDiskReads), ops_base},
        {"storage.evictions_per_op", "count", per_op(kPoolEvictions), ops_base},
        {"storage.disk_writes_per_op", "count", per_op(kDiskWrites), ops_base},
        {"storage.device_busy_frac", "frac",
         Ratio(layer[kDiskWrites] * args.write_latency_us / 1e6, measured_s),
         std::to_string(layer[kDiskWrites]) + " writes x " +
             std::to_string(args.write_latency_us) + " us / " +
             Num(measured_s) + " s"},
        {"cluster.reorganize_ms", "ms", Median(reorg_ms),
         std::to_string(reorg_ms.size()) + " set-ups, median"},
        {"cluster.fill_factor_pct", "%", fill_pct, "last reorganize"},
        {"obs.tracing_overhead_frac", "frac",
         1 - Ratio(Ratio(traced_ops, traced_s), Ratio(untraced_ops, untraced_s)),
         "traced " + Num(Ratio(traced_ops, traced_s)) + " vs untraced " +
             Num(Ratio(untraced_ops, untraced_s)) + " ops/s"},
    };
    metrics.insert(metrics.end(), more.begin(), more.end());
    WriteSpans(args.spans, measured.spans);
  }

  // Human-readable report.
  std::printf("workload %s seed %" PRIu64 ": %zu clients, %zu server workers, "
              "%" PRIu64 " us per block write, %s\n",
              args.workload.c_str(), args.seed, w->clients(), kServerWorkers,
              args.write_latency_us, args.trace ? "traced" : "untraced");
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14s %-6s (%s)\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str(), m.base.c_str());
  }
  std::printf("  retries: %" PRIu64 " reconnects, %" PRIu64
              " conflict aborts, %" PRIu64 " admission rejections, %" PRIu64
              " degraded refusals (per %" PRIu64 " ops)\n",
              measured.reconnects, measured.conflict_retries,
              measured.admission_retries, measured.unavailable_retries,
              measured.completed);
  if (!args.trace) {
    for (int op = 0; op < kNumOps; ++op) {
      const Histogram& h = measured.latency_ns[op];
      if (h.count() == 0) continue;
      const double top = h.HighestSupportedQuantile();
      std::printf("  latency %-13s n=%" PRIu64 ": p50 %s us, p99 %s us, "
                  "p99.9 %s us; highest p with >=10 samples beyond: p%s "
                  "%s us\n",
                  kOpName[op], h.count(), Num(h.Quantile(0.5) / 1e3).c_str(),
                  Num(h.Quantile(0.99) / 1e3).c_str(),
                  Num(h.Quantile(0.999) / 1e3).c_str(), Num(100 * top).c_str(),
                  Num(h.Quantile(top) / 1e3).c_str());
    }
    std::printf("  throughput by quarter of the window: first %.1f, last %.1f "
                "ops/s\n",
                quarter[0], quarter[3]);
  } else {
    const double n = static_cast<double>(measured.traced_requests);
    std::printf("  spans: %zu requests traced, %zu written, %" PRIu64
                " trace-id mismatches\n",
                static_cast<size_t>(measured.traced_requests),
                measured.spans.size(), measured.trace_id_mismatches);
    std::printf("  mean self time per request: net.remainder %.2f us, "
                "server.queue_wait %.2f us, server.exec %.2f us\n",
                Ratio(measured.self_net_ns / 1e3, n),
                Ratio(measured.self_queue_us, n),
                Ratio(measured.self_exec_us, n));
  }
  std::printf("  correctness: lost_updates = %" PRIu64
              ", derived mismatches = %" PRIu64 ", %" PRIu64
              " violations in all%s%s\n",
              lost_updates, derived_mismatches, violations,
              violations ? ", first: " : "", first.c_str());

  // Machine-readable detail for the benchmark's own tools.
  std::printf("detail {\"quarter_ops_s\":[%s,%s,%s,%s],\"failed\":%" PRIu64
              ",\"violations\":%" PRIu64 ",\"lost_updates\":%" PRIu64
              ",\"derived_mismatches\":%" PRIu64
              ",\"trace_id_mismatches\":%" PRIu64 "}\n",
              Num(quarter[0]).c_str(), Num(quarter[1]).c_str(),
              Num(quarter[2]).c_str(), Num(quarter[3]).c_str(), measured.failed,
              violations, lost_updates, derived_mismatches,
              measured.trace_id_mismatches);

  const bool correct = violations == 0 && measured.trace_id_mismatches == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(measured.attempted) +
                     ", \"failed\": " + std::to_string(measured.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Moves the process onto the highest-numbered CPU it may run on, before
/// any thread starts, so every thread inherits that single CPU. Every
/// request is a chain of hand-offs (client, event loop, worker, client).
/// Across CPUs each hand-off wakes an idle CPU, which on a virtual
/// machine is an exit to the hypervisor whose cost follows the host's
/// load; on one CPU it is a context switch.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    Fail("sched_getaffinity failed");
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      Fail("sched_setaffinity failed");
    }
    return;
  }
  Fail("no CPU to run on");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::PinToOneCpu();
  // Threads inherit their creator's timer slack. With the default 50 us,
  // the device model's 100 us block write sleeps 100-150 us, depending on
  // what other timers happen to be pending; at 1 ns it sleeps 100 us.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
