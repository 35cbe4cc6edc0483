// cactis_shell: an interactive console over the multi-session service
// layer. Every line goes through the full server path — admission
// control -> bounded queue -> worker pool -> timestamp-ordered
// transactions — either in-process (loopback) or over real TCP.
//
//   $ ./cactis_shell                       # scripted two-session demo
//   $ ./cactis_shell -i                    # interactive, in-process
//   $ ./cactis_shell --serve 7733          # serve the TCP transport
//   $ ./cactis_shell --connect host:7733   # interactive, over TCP
//
// Interactive mode keeps several sessions open at once; `\1`, `\2`, ...
// switch between them, so conflicting transactions can be interleaved by
// hand and watched abort:
//
//   cactis[1]> begin
//   cactis[1]> \2
//   cactis[2]> begin
//   cactis[2]> get obj(1).v            -- newer txn reads
//   cactis[2]> \1
//   cactis[1]> set obj(1).v = 5        -- older txn writes: ABORTED
//
// Over TCP each shell session is its own connection + server session, so
// the same interleavings exercise the real wire protocol (see
// tools/net_demo.sh for a scripted two-process run).
//
// Statement grammar: see src/server/statement.h — including the
// `profile <stmt>` and `explain <stmt>` observability forms. Extra
// shell commands:
//   \1 ... \9     switch to (opening if needed) session N
//   \profile on|off   prefix every statement with `profile `
//   \slow         drain the slow-statement log (worst first; local only)
//   \metrics      server + database metrics snapshot (alias: stats)
//   \health       degraded/read-only state + probe counters
//   \top [group] [frames]   live telemetry dashboard: polls the
//                 `metrics history` time-series over the transport and
//                 renders the windowed summary (rates, gauge ranges,
//                 interval quantiles) plus active watchdog alerts
//   \alerts       watchdog alert log (raise/clear history, JSON)
//   schema ... end schema    load data-language declarations
//   help | quit
//
// `cactis_shell --connect host:port --top [group]` renders ONE dashboard
// frame and exits — a scriptable health peek at a live server.

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/tcp_server.h"
#include "server/executor.h"
#include "server/statement.h"
#include "server/transport.h"

namespace {

using cactis::SessionId;
using cactis::Status;
using cactis::core::Database;
using cactis::server::Executor;
using cactis::server::LoopbackTransport;
using cactis::server::Response;
using cactis::server::ResponseStatus;
using cactis::server::ResponseStatusToString;
using cactis::server::ServerOptions;

const char* kDemoSchema = R"(
  object class task is
    attributes
      label : string;
      effort : int;
  end object;
)";

/// What the shell needs from either transport.
struct CallOutcome {
  ResponseStatus status = ResponseStatus::kOk;
  std::string payload;
};

class Backend {
 public:
  virtual ~Backend() = default;
  virtual CallOutcome Call(size_t session, const std::string& text) = 0;
  virtual Status LoadSchema(const std::string& source) = 0;
  virtual std::string Metrics() = 0;
  virtual std::string Health() = 0;
  virtual std::string DrainSlow() = 0;
  /// Time-series window JSON (`metrics history` statement).
  virtual std::string MetricsHistory(const std::string& group, long n) = 0;
  /// Watchdog alert log JSON (`alerts` statement).
  virtual std::string Alerts() = 0;
};

/// In-process: the executor lives in this process, requests go through
/// LoopbackTransport.
class LocalBackend : public Backend {
 public:
  LocalBackend() : exec_(&db_, MakeOptions()), client_(&exec_) {
    exec_.Start();
  }
  ~LocalBackend() override { exec_.Shutdown(); }

  CallOutcome Call(size_t n, const std::string& text) override {
    Response r = client_.Call(SessionFor(n), text);
    return {r.status, std::move(r.payload)};
  }
  Status LoadSchema(const std::string& source) override {
    return exec_.LoadSchema(source);
  }
  std::string Metrics() override { return exec_.SnapshotMetrics(); }
  std::string Health() override { return exec_.HealthJson(); }
  std::string DrainSlow() override { return exec_.DrainSlowLogJson(); }
  std::string MetricsHistory(const std::string& group, long n) override {
    return exec_.MetricsHistoryJson(group, n < 0 ? 0 : static_cast<size_t>(n));
  }
  std::string Alerts() override { return exec_.AlertsJson(); }

  Executor* exec() { return &exec_; }

 private:
  static ServerOptions MakeOptions() {
    ServerOptions o;
    o.num_workers = 2;
    // Log every statement so `\slow` always has something to show; a real
    // deployment would keep the default 10ms threshold.
    o.slow_statement_us = 0;
    return o;
  }

  SessionId SessionFor(size_t n) {
    while (sessions_.size() <= n) sessions_.push_back(*client_.Connect());
    return sessions_[n];
  }

  Database db_;
  Executor exec_;
  LoopbackTransport client_;
  std::vector<SessionId> sessions_;
};

/// Remote: each shell session is one TCP connection + server session.
class RemoteBackend : public Backend {
 public:
  RemoteBackend(std::string host, uint16_t port)
      : host_(std::move(host)), port_(port) {}

  CallOutcome Call(size_t n, const std::string& text) override {
    cactis::net::Client* c = SessionFor(n);
    if (c == nullptr) return {ResponseStatus::kRejected, "not connected"};
    auto r = c->Call(cactis::server::SplitStatements(text));
    if (!r.ok()) {
      return {ResponseStatus::kRejected, r.status().ToString()};
    }
    return {r->status, std::move(r->payload)};
  }
  Status LoadSchema(const std::string& source) override {
    cactis::net::Client* c = SessionFor(0);
    if (c == nullptr) return Status(cactis::StatusCode::kUnavailable, "not connected");
    return c->LoadSchema(source);
  }
  std::string Metrics() override {
    cactis::net::Client* c = SessionFor(0);
    if (c == nullptr) return "not connected";
    auto r = c->Metrics();
    return r.ok() ? *r : r.status().ToString();
  }
  std::string Health() override {
    // `health` is a plain statement; ask the server over the wire.
    return Call(0, "health").payload;
  }
  std::string DrainSlow() override {
    return "(slow-statement log is server-local; not exposed over TCP)";
  }
  std::string MetricsHistory(const std::string& group, long n) override {
    // `metrics history` is a plain statement; ask the server over the wire.
    std::string stmt = "metrics history";
    if (!group.empty()) stmt += " " + group;
    if (n > 0) stmt.append(" ").append(std::to_string(n));
    return Call(0, stmt).payload;
  }
  std::string Alerts() override { return Call(0, "alerts").payload; }

 private:
  cactis::net::Client* SessionFor(size_t n) {
    while (clients_.size() <= n) {
      cactis::net::ClientOptions o;
      o.host = host_;
      o.port = port_;
      auto c = std::make_unique<cactis::net::Client>(o);
      Status s = c->Connect();
      if (!s.ok()) {
        std::printf("connect %s:%u failed: %s\n", host_.c_str(), port_,
                    s.ToString().c_str());
        return nullptr;
      }
      clients_.push_back(std::move(c));
    }
    return clients_[n].get();
  }

  std::string host_;
  uint16_t port_;
  std::vector<std::unique_ptr<cactis::net::Client>> clients_;
};

// --- `\top` dashboard --------------------------------------------------------
//
// The dashboard renders the `metrics history` summary without a JSON
// parser: the document comes from our own JsonWriter (keys are never
// escaped, summary entries are flat objects of scalars), so plain
// string scanning is reliable here — and only here.

double NumberAfter(const std::string& doc, const char* key) {
  std::string needle = std::string("\"") + key + "\":";
  size_t pos = doc.find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(doc.c_str() + pos + needle.size(), nullptr);
}

std::string StringAfter(const std::string& doc, const char* key) {
  std::string needle = std::string("\"") + key + "\":\"";
  size_t pos = doc.find(needle);
  if (pos == std::string::npos) return "";
  size_t start = pos + needle.size();
  size_t end = doc.find('"', start);
  if (end == std::string::npos) return "";
  return doc.substr(start, end - start);
}

/// Renders one dashboard frame from the `metrics history` JSON. With no
/// group filter, counters that saw no traffic in the window are hidden
/// so the frame fits a screen; an explicit group shows everything.
void RenderTopFrame(const std::string& history, const std::string& group) {
  size_t sum = history.find("\"summary\":{");
  if (sum == std::string::npos) {
    std::printf("%s\n", history.c_str());  // not history JSON; show raw
    return;
  }
  const std::string head = history.substr(0, history.find("\"samples\""));
  std::printf("-- cactis top: %.0f samples x %.0fms%s%s --\n",
              NumberAfter(head, "count"), NumberAfter(head, "interval_ms"),
              group.empty() ? "" : ", group ", group.c_str());
  std::printf("  %-34s %-9s %s\n", "series", "kind", "window");
  size_t pos = sum + std::strlen("\"summary\":{");
  size_t hidden = 0;
  while (pos < history.size() && history[pos] != '}') {
    if (history[pos] == ',') {
      ++pos;
      continue;
    }
    if (history[pos] != '"') break;
    size_t name_end = history.find('"', pos + 1);
    if (name_end == std::string::npos) break;
    const std::string name = history.substr(pos + 1, name_end - pos - 1);
    size_t obj_start = history.find('{', name_end);
    size_t obj_end = history.find('}', obj_start);  // flat object: no nesting
    if (obj_start == std::string::npos || obj_end == std::string::npos) break;
    const std::string obj =
        history.substr(obj_start, obj_end - obj_start + 1);
    pos = obj_end + 1;

    const std::string kind = StringAfter(obj, "kind");
    char value[96];
    if (kind == "counter") {
      const double delta = NumberAfter(obj, "delta");
      if (group.empty() && delta == 0) {
        ++hidden;
        continue;
      }
      std::snprintf(value, sizeof(value), "%10.1f/s  delta %.0f",
                    NumberAfter(obj, "rate_per_s"), delta);
    } else if (kind == "gauge") {
      std::snprintf(value, sizeof(value), "%10.2f     [%.2f .. %.2f]",
                    NumberAfter(obj, "last"), NumberAfter(obj, "min"),
                    NumberAfter(obj, "max"));
    } else {
      std::snprintf(value, sizeof(value), "p50 %-8.0f p99 %.0f",
                    NumberAfter(obj, "p50"), NumberAfter(obj, "p99"));
    }
    std::printf("  %-34s %-9s %s\n", name.c_str(), kind.c_str(), value);
  }
  if (hidden > 0) {
    std::printf("  (%zu idle counters hidden; `\\top <group>` shows all)\n",
                hidden);
  }
}

/// One line of active watchdog alerts under the dashboard.
void RenderActiveAlerts(const std::string& alerts_json) {
  size_t pos = alerts_json.find("\"active\":[");
  if (pos == std::string::npos) return;
  size_t start = pos + std::strlen("\"active\":[");
  size_t end = alerts_json.find(']', start);
  if (end == std::string::npos) return;
  std::string active = alerts_json.substr(start, end - start);
  // Strip the JSON quoting for display.
  std::string rules;
  for (char c : active) {
    if (c != '"') rules += c == ',' ? ' ' : c;
  }
  if (rules.empty()) {
    std::printf("  alerts: none\n");
  } else {
    std::printf("  alerts: ACTIVE [%s]\n", rules.c_str());
  }
}

class Shell {
 public:
  explicit Shell(std::unique_ptr<Backend> backend)
      : backend_(std::move(backend)) {}

  /// Sends one request batch on session `n` and prints the response.
  void Send(size_t n, const std::string& text) {
    std::string request = text;
    if (profile_all_) {
      // `\profile on` mode: wrap every statement of the batch.
      request = "profile " + request;
      size_t pos = 0;
      while ((pos = request.find(';', pos)) != std::string::npos) {
        request.insert(pos + 1, " profile");
        pos += 9;
      }
    }
    CallOutcome r = backend_->Call(n, request);
    if (r.status == ResponseStatus::kOk) {
      if (!r.payload.empty()) std::printf("%s\n", r.payload.c_str());
    } else {
      std::printf("[%s] %s\n",
                  std::string(ResponseStatusToString(r.status)).c_str(),
                  r.payload.c_str());
      if (r.status == ResponseStatus::kAborted) {
        std::printf(
            "(transaction aborted by a concurrency conflict; its effects "
            "are rolled back -- retry the statement)\n");
      }
    }
  }

  bool Execute(size_t* current, const std::string& line, std::istream& in) {
    if (line.empty() || line[0] == '#') return true;
    if (line == "quit" || line == "exit") return false;
    if (line == "help") {
      std::printf(
          "statements: begin commit abort | create C [as N] | delete T |\n"
          "  set T.A = expr | get/peek T.A | connect/disconnect T.P to T.P\n"
          "  select C where pred | instances C | members S | fetch [N]\n"
          "  profile <stmt> | explain <stmt> | reorganize [policy]\n"
          "  metrics history [group] [n] | alerts\n"
          "shell: \\1..\\9 switch session, \\profile on|off, \\slow,\n"
          "  \\metrics (alias: stats), \\health, schema...end schema,\n"
          "  \\top [group] [frames] (telemetry dashboard), \\alerts,\n"
          "  \\reorg [greedy_usage|dstc|typegraph], help, quit.\n"
          "  Batches: statements joined with ';'.\n");
      return true;
    }
    if (line == "\\profile on" || line == "\\profile off") {
      profile_all_ = line.back() == 'n';
      std::printf("profile mode %s\n", profile_all_ ? "on" : "off");
      return true;
    }
    if (line == "\\slow") {
      std::printf("%s\n", backend_->DrainSlow().c_str());
      return true;
    }
    if (line == "\\health") {
      std::printf("%s\n", backend_->Health().c_str());
      return true;
    }
    if (line == "\\alerts") {
      std::printf("%s\n", backend_->Alerts().c_str());
      return true;
    }
    // \top [group] [frames]: live dashboard. Frames default to 3 so a
    // piped script terminates; interactively, rerun (or raise N) to
    // keep watching.
    if (line == "\\top" || line.rfind("\\top ", 0) == 0) {
      std::string group;
      long frames = 3;
      std::istringstream ss(line.substr(4));
      std::string tok;
      while (ss >> tok) {
        if (std::isdigit(static_cast<unsigned char>(tok[0]))) {
          frames = std::strtol(tok.c_str(), nullptr, 10);
        } else {
          group = tok;
        }
      }
      RunTop(group, frames < 1 ? 1 : frames);
      return true;
    }
    // \reorg [policy]: sugar for the `reorganize` statement, so the
    // maintenance verb is reachable without remembering its grammar.
    if (line == "\\reorg" || line.rfind("\\reorg ", 0) == 0) {
      std::string stmt = "reorganize" + line.substr(6);
      Send(*current, stmt);
      return true;
    }
    if (line[0] == '\\' && line.size() == 2 && isdigit(line[1])) {
      *current = static_cast<size_t>(line[1] - '1');
      return true;
    }
    if (line == "schema") {
      std::string source, next;
      while (std::getline(in, next) && next != "end schema") {
        source += next;
        source += '\n';
      }
      auto s = backend_->LoadSchema(source);
      std::printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
      return true;
    }
    if (line == "stats" || line == "\\metrics") {
      std::printf("%s\n", backend_->Metrics().c_str());
      return true;
    }
    Send(*current, line);
    return true;
  }

  /// Polls `metrics history` + `alerts` over the backend's transport and
  /// redraws the dashboard once per second for `frames` frames.
  void RunTop(const std::string& group, long frames) {
    for (long i = 0; i < frames; ++i) {
      if (i > 0) std::this_thread::sleep_for(std::chrono::seconds(1));
      if (isatty(STDOUT_FILENO) && frames > 1) {
        std::printf("\033[H\033[2J");  // clear only on a real terminal
      }
      RenderTopFrame(backend_->MetricsHistory(group, 0), group);
      RenderActiveAlerts(backend_->Alerts());
      std::fflush(stdout);
    }
  }

  Backend* backend() { return backend_.get(); }

 private:
  std::unique_ptr<Backend> backend_;
  bool profile_all_ = false;
};

// Scripted demo: two sessions interleave on one object; the older
// transaction's write aborts cleanly instead of clobbering the newer
// transaction's read.
void RunDemo(Shell* shell) {
  std::printf("== two-session isolation demo ==\n");
  auto s = shell->backend()->LoadSchema(kDemoSchema);
  if (!s.ok()) {
    std::printf("schema: %s\n", s.ToString().c_str());
    return;
  }
  struct Step {
    size_t session;
    const char* text;
  };
  const Step steps[] = {
      {0, "create task as t1"},
      {0, "set t1.label = \"write paper\"; set t1.effort = 3"},
      {0, "begin"},                 // session 1: older timestamp
      {1, "begin"},                 // session 2: newer timestamp
      {1, "get obj(1).effort"},     // newer reads -> read ts moves up
      {0, "set obj(1).effort = 9"}, // older writes -> timestamp conflict
      {1, "commit"},
      {0, "begin; set obj(1).effort = 9; commit"},  // retry succeeds
      {0, "get obj(1).effort"},
  };
  for (const auto& step : steps) {
    std::printf("cactis[%zu]> %s\n", step.session + 1, step.text);
    shell->Send(step.session, step.text);
  }
  std::printf(
      "\nThe conflicting write surfaced as a clean abort; the retry —\n"
      "with a fresh, newer timestamp — committed. Run with -i to drive\n"
      "the sessions yourself.\n");
}

// Scripted demo: the request-scoped observability surface. `profile`
// returns the statement's cost breakdown, `explain` its access plan,
// and `\slow` drains the worst statements seen so far.
void RunObservabilityDemo(Shell* shell) {
  std::printf("\n== observability demo ==\n");
  struct Step {
    size_t session;
    const char* text;
  };
  const Step steps[] = {
      {0, "explain get obj(1).effort"},
      {0, "profile get obj(1).effort"},
      {0, "profile begin; profile set obj(1).effort = 4; profile commit"},
  };
  size_t current = 0;
  for (const auto& step : steps) {
    std::printf("cactis[%zu]> %s\n", step.session + 1, step.text);
    shell->Send(step.session, step.text);
  }
  std::istringstream no_input;
  for (const char* cmd : {"\\slow", "\\metrics"}) {
    std::printf("cactis[1]> %s\n", cmd);
    shell->Execute(&current, cmd, no_input);
  }
  std::printf(
      "\n`profile` attributes every block read, cache hit, WAL byte and\n"
      "lock wait to the statement that caused it; `\\slow` drains the\n"
      "bounded worst-statements log (worst first).\n");
}

/// "host:port" or "port" -> (host, port). Empty host means loopback.
bool ParseEndpoint(const std::string& arg, std::string* host,
                   uint16_t* port) {
  std::string p = arg;
  *host = "127.0.0.1";
  size_t colon = arg.rfind(':');
  if (colon != std::string::npos) {
    *host = arg.substr(0, colon);
    p = arg.substr(colon + 1);
  }
  char* end = nullptr;
  long v = std::strtol(p.c_str(), &end, 10);
  if (end == p.c_str() || *end != '\0' || v < 0 || v > 65535) return false;
  *port = static_cast<uint16_t>(v);
  return true;
}

/// --serve: host the TCP transport until SIGINT/SIGTERM.
int Serve(const std::string& endpoint) {
  std::string host;
  uint16_t port = 0;
  if (!ParseEndpoint(endpoint, &host, &port)) {
    std::fprintf(stderr, "bad --serve endpoint: %s\n", endpoint.c_str());
    return 1;
  }
  // Block the shutdown signals before any thread spawns, so every
  // thread inherits the mask and sigwait() below is the sole receiver.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  Database db;
  ServerOptions so;
  so.num_workers = 4;
  Executor exec(&db, so);
  exec.Start();
  cactis::net::TcpServerOptions to;
  to.host = host;
  to.port = port;
  cactis::net::TcpServer server(&exec, to);
  Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("cactis serving on %s:%u\n", host.c_str(), server.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&set, &sig);

  std::printf("shutting down (signal %d)\n", sig);
  server.Shutdown();
  exec.Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "--serve") {
    return Serve(args.size() > 1 ? args[1] : "0");
  }

  // --top [group]: render one dashboard frame and exit (requires
  // --connect; the point is a scriptable peek at a LIVE server whose
  // sampler already holds history).
  bool one_shot_top = false;
  std::string top_group;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--top") {
      one_shot_top = true;
      if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
        top_group = args[i + 1];
        args.erase(args.begin() + i + 1);
      }
      args.erase(args.begin() + i);
      break;
    }
  }

  std::unique_ptr<Backend> backend;
  bool interactive = false;
  if (!args.empty() && args[0] == "--connect") {
    if (args.size() < 2) {
      std::fprintf(stderr, "usage: cactis_shell --connect host:port\n");
      return 1;
    }
    std::string host;
    uint16_t port = 0;
    if (!ParseEndpoint(args[1], &host, &port)) {
      std::fprintf(stderr, "bad --connect endpoint: %s\n", args[1].c_str());
      return 1;
    }
    backend = std::make_unique<RemoteBackend>(host, port);
    interactive = true;  // remote mode reads statements from stdin
  } else if (one_shot_top) {
    std::fprintf(stderr,
                 "usage: cactis_shell --connect host:port --top [group]\n");
    return 1;
  } else {
    backend = std::make_unique<LocalBackend>();
    interactive = !args.empty() && args[0] == "-i";
  }

  Shell shell(std::move(backend));
  if (one_shot_top) {
    shell.RunTop(top_group, 1);
    return 0;
  }
  if (!interactive) {
    RunDemo(&shell);
    RunObservabilityDemo(&shell);
    return 0;
  }
  std::printf("cactis service-layer shell; 'help' for help.\n");
  size_t current = 0;
  std::string line;
  for (;;) {
    std::printf("cactis[%zu]> ", current + 1);
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (!shell.Execute(&current, line, std::cin)) break;
  }
  return 0;
}
