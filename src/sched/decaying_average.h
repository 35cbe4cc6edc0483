// DecayingAverage: the self-adaptive statistic of paper section 2.3.
//
// "We keep information about past behavior in the form of a decaying
// average which changes over time. This makes the database self-adaptive,
// allowing changes in the structure of the database to be reflected in
// changing averages and hence changing scheduling priorities." A
// worst-case statistic gathered at cluster time is used as the initial
// estimate.

#ifndef CACTIS_SCHED_DECAYING_AVERAGE_H_
#define CACTIS_SCHED_DECAYING_AVERAGE_H_

namespace cactis::sched {

/// The state of a decaying average without its weight: tables holding
/// many averages under one shared alpha (the per-edge statistics) keep
/// this and pass the alpha to each Record.
class DecayState {
 public:
  explicit DecayState(double initial = 1.0) : value_(initial) {}

  /// Records an observation: value <- alpha*sample + (1-alpha)*value. The
  /// first sample after a Seed() (or construction) replaces the seed
  /// entirely.
  void Record(double sample, double alpha) {
    if (seeded_only_) {
      value_ = sample;
      seeded_only_ = false;
    } else {
      value_ = alpha * sample + (1.0 - alpha) * value_;
    }
  }

  /// Sets the initial (worst-case) estimate without counting it as an
  /// observation.
  void Seed(double estimate) {
    value_ = estimate;
    seeded_only_ = true;
  }

  double value() const { return value_; }

 private:
  double value_;
  bool seeded_only_ = true;
};

/// A decaying average that carries its own weight.
class DecayingAverage {
 public:
  /// `alpha` is the weight of each new sample (0 < alpha <= 1).
  explicit DecayingAverage(double alpha = 0.25, double initial = 1.0)
      : alpha_(alpha), state_(initial) {}

  void Record(double sample) { state_.Record(sample, alpha_); }
  void Seed(double estimate) { state_.Seed(estimate); }

  double value() const { return state_.value(); }
  double alpha() const { return alpha_; }

 private:
  double alpha_;
  DecayState state_;
};

}  // namespace cactis::sched

#endif  // CACTIS_SCHED_DECAYING_AVERAGE_H_
