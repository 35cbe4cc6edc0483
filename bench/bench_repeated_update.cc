// Experiment E2 — the O(1) repeated-update cut-off.
//
// Paper claim (section 2.2): "if an attribute A were assigned 2 different
// values in a row before updating the system, the second assignment would
// only update A and not visit any other attributes and hence incur only
// O(1) overhead."
//
// Workload: chains of length N, warmed via a non-subscribing read. The
// first assignment to the head marks the whole downstream chain (~N mark
// visits); the second stops at the first already-out-of-date attribute.

#include "bench_util.h"

int main() {
  using namespace cactis::bench;
  std::printf(
      "E2: marking work for consecutive assignments to the same attribute\n"
      "(mark-phase visits; chain of N derived attributes downstream)\n\n");
  BenchReport report("repeated_update");
  report.SetConfig("experiment", "E2");
  Table table({"chain length", "1st set visits", "2nd set visits",
               "3rd set visits", "cutoffs"});
  for (int n : {10, 100, 1000, 10000}) {
    cactis::core::DatabaseOptions opts;
    opts.buffer_capacity = 1u << 16;
    cactis::core::Database db(opts);
    Die(db.LoadSchema(kCellSchema), "schema");
    auto ids = BuildChain(&db, n);
    Die(db.Peek(ids.back(), "acc").status(), "warm");

    db.ResetStats();
    Die(db.Set(ids[0], "base", cactis::Value::Int(5)), "set1");
    uint64_t first = db.eval_stats().mark_visits;

    db.ResetStats();
    Die(db.Set(ids[0], "base", cactis::Value::Int(6)), "set2");
    uint64_t second = db.eval_stats().mark_visits;

    db.ResetStats();
    Die(db.Set(ids[0], "base", cactis::Value::Int(7)), "set3");
    uint64_t third = db.eval_stats().mark_visits;
    uint64_t cutoffs = db.eval_stats().mark_cutoffs;

    table.AddRow({Num(static_cast<uint64_t>(n)), Num(first), Num(second),
                  Num(third), Num(cutoffs)});
    // Exact counters (bench_diff compares them with no tolerance).
    std::string key = "e2_n";
    key += std::to_string(n);
    report.SetCounter(key + "_first_visits", first);
    report.SetCounter(key + "_second_visits", second);
    report.SetCounter(key + "_third_visits", third);
    report.SetCounter(key + "_cutoffs", cutoffs);
  }
  table.Print();
  std::printf(
      "\nShape check (paper): 1st-set visits grow linearly with the chain;\n"
      "2nd and 3rd stay constant (the traversal is cut short at the first\n"
      "already-out-of-date attribute).\n");
  report.AddTable("mark_visits", table);
  report.Write();
  return 0;
}
