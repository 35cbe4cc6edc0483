// Experiment E15 — multi-session TCP soak.
//
// The network transport's endurance test: thousands of concurrent client
// sessions over REAL sockets (an in-process TcpServer on loopback, but
// every byte crosses the kernel TCP stack), with connection churn, an
// OCB-style read/RMW mix and hot-set skew. The paper's claim that Cactis
// is "a multi-user DBMS" meets the modern bar here: many unreliable
// clients, admission control, and sessions that die mid-transaction.
//
// Workload: S sessions spread across T driver threads; each session is
// one TCP connection + server session. Per operation:
//   * read_pct%: auto-commit `get obj(N).v` (MVCC snapshot path),
//   * otherwise one RMW batch `begin; set obj(N).v = v + 1; commit`
//     retried client-side (bounded backoff) on clean aborts/rejections.
// Targets are skewed: hot_pct% land on a small hot set, the rest spread
// over a larger cold set. After each op a session churns with churn_pct%
// probability: half the churn closes cleanly (kGoodbye), half abandons
// the socket — and a third of the abandons first open a transaction and
// leave an UNCOMMITTED increment behind, which the server must roll back
// via the eager-close path.
//
// Correctness gates (the process exits nonzero on violation):
//   * lost_updates == 0: per-object shadow counts of committed
//     increments must equal the final attribute values — dirty
//     disconnects must never leak a half-done increment in, and retries
//     must never double-apply.
//   * session_leaks == 0: once every client is gone, the server must
//     hold zero sessions (disconnect-orphaned transactions rolled back,
//     not lingering to idle-timeout).
//
// Reported: throughput, client-observed p50/p99/p999, rejects (typed
// admission-control responses, all retried), reconnects. JSON record:
// BENCH_soak.json.
//
// Env knobs (EXPERIMENTS.md E15):
//   CACTIS_SOAK_SESSIONS=N   concurrent sessions        (default 1000)
//   CACTIS_SOAK_OPS=N        operations per session     (default 20)
//   CACTIS_SOAK_READ_PCT=N   read percentage            (default 70)
//   CACTIS_SOAK_HOT_PCT=N    hot-set hit percentage     (default 80)
//   CACTIS_SOAK_CHURN_PCT=N  per-op churn probability   (default 10)
//   CACTIS_SOAK_THREADS=N    driver threads             (default 8)
//   CACTIS_SOAK_WORKERS=N    executor workers           (default 4)
//   CACTIS_SOAK_SMOKE=1      reduced CI size (128 sessions, 10 ops)

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "server/executor.h"
#include "server/transport.h"

namespace cactis::bench {
namespace {

constexpr const char* kSoakSchema = R"(
  object class counter is
    attributes
      v : int;
  end object;
)";

constexpr int kHotSet = 8;
constexpr int kColdSet = 256;

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return std::atoi(v);
}

/// Client-observed latency histogram: power-of-two microsecond buckets
/// (same shape as obs::Histogram), merged across driver threads.
struct LatencyHist {
  std::array<uint64_t, 32> buckets{};
  uint64_t count = 0;

  void Record(uint64_t us) {
    ++buckets[obs::Histogram::BucketOf(us)];
    ++count;
  }
  void Merge(const LatencyHist& o) {
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
    count += o.count;
  }
  /// Upper-bucket-bound quantile estimate, microseconds.
  double QuantileUs(double q) const {
    if (count == 0) return 0;
    uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count));
    if (target >= count) target = count - 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      seen += buckets[i];
      if (seen > target) return static_cast<double>(1ull << i);
    }
    return static_cast<double>(1ull << (buckets.size() - 1));
  }
};

/// Raises the fd soft limit to the hard limit: S concurrent sockets plus
/// the server side of each needs ~2S+ descriptors, and CI defaults are
/// often 1024.
void RaiseFdLimit() {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);
  }
}

struct SoakTotals {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> aborts{0};        // retryable aborted responses seen
  std::atomic<uint64_t> rejects{0};       // kRejected responses seen
  std::atomic<uint64_t> reconnects{0};
  std::atomic<uint64_t> clean_churns{0};
  std::atomic<uint64_t> abrupt_churns{0};
  std::atomic<uint64_t> dirty_churns{0};  // abandoned with an open txn
  std::atomic<uint64_t> op_failures{0};   // non-retryable client errors
};

/// One driver thread's slice of the session population. Each session is
/// a live Client; ops proceed round-robin across the slice so every
/// connection stays concurrently open for the whole run.
void DriverThread(size_t tid, size_t sessions, int ops, uint16_t port,
                  int read_pct, int hot_pct, int churn_pct,
                  const std::vector<std::string>* objs,
                  std::vector<std::atomic<uint64_t>>* shadow,
                  SoakTotals* totals, LatencyHist* hist) {
  Rng rng(0x50AC * (tid + 1));
  net::ClientOptions copts;
  copts.port = port;
  copts.request_timeout_ms = 60'000;
  copts.retry.max_attempts = 12;
  copts.retry.base_us = 100;
  copts.retry.max_us = 20'000;
  copts.retry.jitter_seed = 0xC0FFEE + tid;

  std::vector<std::unique_ptr<net::Client>> clients;
  clients.reserve(sessions);
  for (size_t i = 0; i < sessions; ++i) {
    clients.push_back(std::make_unique<net::Client>(copts));
    // Connect() may transiently fail while the accept queue churns;
    // CallRetry below reconnects, so best-effort here.
    (void)clients.back()->Connect();
  }

  auto pick = [&]() -> size_t {
    if (rng.Uniform(100) < static_cast<uint64_t>(hot_pct)) {
      return rng.Uniform(kHotSet);
    }
    return kHotSet + rng.Uniform(kColdSet);
  };

  for (int op = 0; op < ops; ++op) {
    for (size_t i = 0; i < sessions; ++i) {
      net::Client* c = clients[i].get();
      const size_t j = pick();
      const bool is_read =
          rng.Uniform(100) < static_cast<uint64_t>(read_pct);
      auto t0 = std::chrono::steady_clock::now();
      Result<net::WireResponse> r =
          is_read ? c->CallRetry({"get " + (*objs)[j] + ".v"})
                  : c->CallRetry({"begin", "set " + (*objs)[j] + ".v = v + 1",
                                  "commit"});
      auto t1 = std::chrono::steady_clock::now();
      hist->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count()));
      totals->reconnects.fetch_add(
          static_cast<uint64_t>(c->last_retries()),
          std::memory_order_relaxed);
      if (!r.ok()) {
        totals->op_failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (r->rejected()) {
        // Retry budget spent while the queue stayed full: accounted,
        // never silently dropped.
        totals->rejects.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (r->aborted()) {
        totals->aborts.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (!r->ok()) {
        totals->op_failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (is_read) {
        totals->reads.fetch_add(1, std::memory_order_relaxed);
      } else {
        (*shadow)[j].fetch_add(1, std::memory_order_relaxed);
        totals->commits.fetch_add(1, std::memory_order_relaxed);
      }

      // Connection churn: sessions die and are reborn throughout.
      if (rng.Uniform(100) < static_cast<uint64_t>(churn_pct)) {
        const uint64_t kind = rng.Uniform(6);
        if (kind < 3) {
          totals->clean_churns.fetch_add(1, std::memory_order_relaxed);
          c->Close();  // goodbye handshake; session closes cleanly
        } else if (kind < 5) {
          totals->abrupt_churns.fetch_add(1, std::memory_order_relaxed);
          c->Abandon();  // vanish; server eager-closes the session
        } else {
          // Dirty churn: open a transaction, stage an UNCOMMITTED
          // increment, vanish. The eager-close path must roll it back
          // or the shadow audit fails.
          totals->dirty_churns.fetch_add(1, std::memory_order_relaxed);
          (void)c->Call({"begin", "set " + (*objs)[pick()] + ".v = v + 1"});
          c->Abandon();
        }
        (void)c->Connect();  // rebirth with a fresh session
      }
    }
  }
  for (auto& c : clients) c->Close();
}

int RunSoak() {
  // The report's wall clock starts at construction, so it must exist
  // before the run it times.
  BenchReport report("soak");
  RaiseFdLimit();
  const bool smoke = EnvInt("CACTIS_SOAK_SMOKE", 0) != 0;
  const size_t sessions = static_cast<size_t>(
      EnvInt("CACTIS_SOAK_SESSIONS", smoke ? 128 : 1000));
  const int ops = EnvInt("CACTIS_SOAK_OPS", smoke ? 10 : 20);
  const int read_pct = EnvInt("CACTIS_SOAK_READ_PCT", 70);
  const int hot_pct = EnvInt("CACTIS_SOAK_HOT_PCT", 80);
  const int churn_pct = EnvInt("CACTIS_SOAK_CHURN_PCT", 10);
  const size_t threads = static_cast<size_t>(EnvInt(
      "CACTIS_SOAK_THREADS",
      smoke ? 4 : static_cast<int>(
                      std::min(8u, std::thread::hardware_concurrency()))));
  const size_t workers =
      static_cast<size_t>(EnvInt("CACTIS_SOAK_WORKERS", 4));

  std::printf(
      "E15 — TCP soak: %zu sessions x %d ops (%d%% reads, %d%% hot, "
      "%d%% churn) over %zu driver threads, %zu workers\n\n",
      sessions, ops, read_pct, hot_pct, churn_pct, threads, workers);

  core::Database db;
  Die(db.LoadSchema(kSoakSchema), "schema");

  server::ServerOptions sopts;
  sopts.num_workers = workers;
  // Deep enough that steady-state traffic is admitted, shallow enough
  // that the rejection path is really exercised under bursts.
  sopts.max_queue_depth = 2 * threads + 32;
  sopts.slow_statement_us = 50'000;
  server::Executor exec(&db, sopts);

  exec.Start();
  server::LoopbackTransport setup_client(&exec);
  auto setup = MustV(setup_client.Connect(), "connect");

  // Seed hot + cold object sets; "v" starts at 0 everywhere.
  std::vector<std::string> objs;
  for (int i = 0; i < kHotSet + kColdSet; ++i) {
    auto r = setup_client.Call(setup, "create counter");
    Die(r.ok() ? Status::OK() : Status::Internal(r.payload), "create");
    objs.push_back(r.payload);  // "obj(N)"
    auto z = setup_client.Call(setup, "set " + objs.back() + ".v = 0");
    Die(z.ok() ? Status::OK() : Status::Internal(z.payload), "seed");
  }

  net::TcpServerOptions topts;
  net::TcpServer server(&exec, topts);
  Die(server.Start(), "tcp server");
  const uint16_t port = server.port();

  std::vector<std::atomic<uint64_t>> shadow(kHotSet + kColdSet);
  SoakTotals totals;
  std::vector<LatencyHist> hists(threads);

  auto t0 = std::chrono::steady_clock::now();
  uint64_t peak_sessions = 0;
  {
    std::vector<std::thread> drivers;
    drivers.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      const size_t lo = t * sessions / threads;
      const size_t hi = (t + 1) * sessions / threads;
      drivers.emplace_back(DriverThread, t, hi - lo, ops, port, read_pct,
                           hot_pct, churn_pct, &objs, &shadow, &totals,
                           &hists[t]);
    }
    // Sample concurrency while the drivers run: the soak's claim is that
    // all S sessions are live AT ONCE, not merely over the run.
    std::atomic<bool> sampling{true};
    std::thread sampler([&] {
      while (sampling.load(std::memory_order_acquire)) {
        uint64_t now = exec.session_count();
        if (now > peak_sessions) peak_sessions = now;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
    for (auto& d : drivers) d.join();
    sampling.store(false, std::memory_order_release);
    sampler.join();
  }
  auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  // Session-leak gate: every client is gone; eager/clean closes must
  // leave the server holding zero sessions (the setup session remains).
  uint64_t leaked = 0;
  for (int spin = 0; spin < 500; ++spin) {
    leaked = exec.session_count() > 1 ? exec.session_count() - 1 : 0;
    if (leaked == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Lost-update audit: committed increments (shadow) must equal final
  // values. Dirty disconnects staged uncommitted increments that MUST
  // have rolled back; double-applied retries would overshoot.
  uint64_t lost = 0;
  for (size_t j = 0; j < objs.size(); ++j) {
    auto r = setup_client.Call(setup, "get " + objs[j] + ".v");
    Die(r.ok() ? Status::OK() : Status::Internal(r.payload), "audit get");
    uint64_t got = std::strtoull(r.payload.c_str(), nullptr, 10);
    uint64_t want = shadow[j].load();
    lost += (want > got) ? want - got : got - want;
  }

  LatencyHist merged;
  for (const auto& h : hists) merged.Merge(h);

  const net::NetStats& ns = server.stats();
  const uint64_t total_ops = totals.reads.load() + totals.commits.load();
  const double ops_per_s = wall_s > 0 ? total_ops / wall_s : 0;

  Table t({"sessions", "ops", "ops/s", "p50us", "p99us", "p999us",
           "commits", "aborts", "rejects", "reconnects", "eager", "lost",
           "leaked"});
  t.AddRow({Num(static_cast<uint64_t>(sessions)), Num(total_ops),
            Num(ops_per_s), Num(merged.QuantileUs(0.5)),
            Num(merged.QuantileUs(0.99)), Num(merged.QuantileUs(0.999)),
            Num(totals.commits.load()), Num(totals.aborts.load()),
            Num(totals.rejects.load()), Num(totals.reconnects.load()),
            Num(ns.eager_closes.load()), Num(lost), Num(leaked)});
  t.Print();

  std::printf(
      "\nchurn: %llu clean / %llu abrupt / %llu dirty (open txn at "
      "disconnect); peak concurrent sessions %llu; %llu frames in, "
      "%llu frames out\n",
      static_cast<unsigned long long>(totals.clean_churns.load()),
      static_cast<unsigned long long>(totals.abrupt_churns.load()),
      static_cast<unsigned long long>(totals.dirty_churns.load()),
      static_cast<unsigned long long>(peak_sessions),
      static_cast<unsigned long long>(ns.frames_received.load()),
      static_cast<unsigned long long>(ns.frames_sent.load()));

  report.SetConfig("sessions", static_cast<uint64_t>(sessions));
  report.SetConfig("ops_per_session", ops);
  report.SetConfig("read_pct", read_pct);
  report.SetConfig("hot_pct", hot_pct);
  report.SetConfig("churn_pct", churn_pct);
  report.SetConfig("driver_threads", static_cast<uint64_t>(threads));
  report.SetConfig("workers", static_cast<uint64_t>(workers));
  report.SetConfig("hot_set", kHotSet);
  report.SetConfig("cold_set", kColdSet);
  report.SetConfig("smoke", smoke);
  // Latency quantiles are wall-clock: record the hardware so bench_diff
  // only compares them across like hosts.
  report.SetConfig("host_cpus",
                   static_cast<uint64_t>(std::thread::hardware_concurrency()));
  report.SetCounter("ops", total_ops);
  report.SetCounter("reads", totals.reads.load());
  report.SetCounter("commits", totals.commits.load());
  report.SetCounter("aborts", totals.aborts.load());
  report.SetCounter("rejects", totals.rejects.load());
  report.SetCounter("reconnects", totals.reconnects.load());
  report.SetCounter("op_failures", totals.op_failures.load());
  report.SetCounter("clean_churns", totals.clean_churns.load());
  report.SetCounter("abrupt_churns", totals.abrupt_churns.load());
  report.SetCounter("dirty_churns", totals.dirty_churns.load());
  report.SetCounter("eager_closes", ns.eager_closes.load());
  report.SetCounter("peak_sessions", peak_sessions);
  report.SetCounter("connections_accepted", ns.connections_accepted.load());
  report.SetCounter("frames_received", ns.frames_received.load());
  report.SetCounter("frames_sent", ns.frames_sent.load());
  report.SetCounter("framing_errors", ns.framing_errors.load());
  report.SetCounter("p50_us", static_cast<uint64_t>(merged.QuantileUs(0.5)));
  report.SetCounter("p99_us", static_cast<uint64_t>(merged.QuantileUs(0.99)));
  report.SetCounter("p999_us",
                    static_cast<uint64_t>(merged.QuantileUs(0.999)));
  report.SetCounter("lost_updates", lost);
  report.SetCounter("session_leaks", leaked);
  report.AddTable("soak", t);
  report.Write();

  server.Shutdown();
  exec.Shutdown();

  if (lost != 0) {
    std::fprintf(stderr, "E15 FAILED: %llu lost updates\n",
                 static_cast<unsigned long long>(lost));
    return 1;
  }
  if (leaked != 0) {
    std::fprintf(stderr, "E15 FAILED: %llu leaked sessions\n",
                 static_cast<unsigned long long>(leaked));
    return 1;
  }
  if (totals.op_failures.load() != 0) {
    std::fprintf(stderr, "E15 FAILED: %llu non-retryable op failures\n",
                 static_cast<unsigned long long>(totals.op_failures.load()));
    return 1;
  }
  std::printf("\nE15 ok: lost_updates=0, session_leaks=0\n");
  return 0;
}

}  // namespace
}  // namespace cactis::bench

int main() { return cactis::bench::RunSoak(); }
