// Clocks.
//
// Cactis uses two notions of time:
//  * LogicalClock — monotone counter used for transaction timestamps
//    (timestamp-ordering concurrency control) and version stamps.
//  * SimClock — the simulated wall clock of the software environment (file
//    modification times, milestone dates). Deterministic: it only advances
//    when told to, which keeps tests and benchmarks reproducible.

#ifndef CACTIS_COMMON_CLOCK_H_
#define CACTIS_COMMON_CLOCK_H_

#include <atomic>
#include <cstdint>

#include "common/value.h"

namespace cactis {

/// Monotone logical clock; Tick() is strictly increasing from 1.
/// Atomic so concurrent read-only statements can stamp auto-commit
/// reads without holding the statement lock.
class LogicalClock {
 public:
  uint64_t Tick() { return now_.fetch_add(1, std::memory_order_relaxed) + 1; }
  uint64_t now() const { return now_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> now_{0};
};

/// Deterministic simulated wall clock for the environment layer.
class SimClock {
 public:
  explicit SimClock(int64_t start = 1) : now_{start} {}

  TimePoint now() const { return now_; }

  /// Advances time by `delta` ticks and returns the new now.
  TimePoint Advance(int64_t delta = 1) {
    now_.ticks += delta;
    return now_;
  }

 private:
  TimePoint now_;
};

}  // namespace cactis

#endif  // CACTIS_COMMON_CLOCK_H_
