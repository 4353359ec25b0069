#ifndef RESTUNE_TUNER_SUPERVISOR_H_
#define RESTUNE_TUNER_SUPERVISOR_H_

#include "common/result.h"
#include "common/rng.h"
#include "dbsim/fault_injector.h"
#include "dbsim/simulator.h"

namespace restune {

/// Retry/deadline policy for one supervised evaluation. Backoff is
/// simulated time (accounted, never slept), exponential with optional
/// decorrelated jitter — the classic cloud-client retry shape.
struct RetryPolicy {
  /// Total attempts per evaluation (1 = no retries).
  int max_attempts = 3;
  double initial_backoff_seconds = 5.0;
  double max_backoff_seconds = 120.0;
  double backoff_multiplier = 2.0;
  /// Decorrelated jitter: sleep = min(cap, Uniform(base, 3 * previous)).
  /// Off = plain exponential (deterministic without RNG draws).
  bool decorrelated_jitter = true;
  /// Per-attempt deadline; an attempt whose simulated elapsed time exceeds
  /// it is classified as a timeout even if the simulator labeled it
  /// differently. 0 derives the deadline as
  /// `deadline_multiplier * replay_seconds`.
  double deadline_seconds = 0.0;
  double deadline_multiplier = 3.0;
};

/// Result of a supervised evaluation: the final outcome plus how hard the
/// supervisor had to work for it.
struct SupervisedEvaluation {
  EvaluationOutcome outcome;
  int attempts = 1;
  /// Total simulated backoff slept between attempts.
  double backoff_seconds = 0.0;
  /// True when a retryable fault survived all allowed attempts.
  bool retries_exhausted = false;
  /// Total simulated seconds the evaluation took end to end: replay/fault
  /// time of every attempt plus backoff. This is the delivery latency the
  /// event-driven session uses to order asynchronous completions.
  double elapsed_seconds = 0.0;
};

/// Wraps `DbInstanceSimulator::TryEvaluate` with the fault-tolerance policy
/// of the tuning loop: metric validation (a "successful" replay reporting
/// NaN/Inf/zero throughput is a corrupted-metrics fault), per-attempt
/// deadline classification, and bounded retries with exponential backoff +
/// decorrelated jitter for retryable faults. Crashes and timeouts are
/// persistent — the same configuration would fail again — and are returned
/// to the caller after a single attempt for failure-aware learning.
///
/// Thread safety: single-threaded by contract, not by locking. The
/// supervisor owns a deterministic RNG stream whose consumption order IS
/// the reproducibility contract (evaluations draw jitter in launch order),
/// so serializing calls with a mutex would be insufficient anyway — the
/// caller must impose a total order. The event session does: it runs the
/// supervisor on the loop thread only.
class EvaluationSupervisor {
 public:
  EvaluationSupervisor(DbInstanceSimulator* simulator, RetryPolicy policy = {},
                       uint64_t seed = 0x5eed);

  /// Supervised evaluation of θ. `retry_any_fault` additionally retries
  /// non-retryable kinds — used only for the bootstrap evaluation of the
  /// known-good default configuration, which must not die to a random
  /// injected crash.
  Result<SupervisedEvaluation> Evaluate(const Vector& theta,
                                        bool retry_any_fault = false);

  /// A corrupted observation: any non-finite metric, or throughput that
  /// collapsed to zero (a replay that measured nothing).
  static bool IsCorrupted(const Observation& observation);

  /// How a client reports one unsupervised replay (`TryEvaluate`) to the
  /// tuning server: kNone when the observation is usable as metrics, the
  /// fault's kind when the replay failed, kCorruptedMetrics when it
  /// "succeeded" with metrics `IsCorrupted` rejects, and kCrash when the
  /// replay could not run at all. Forwarding the raw outcome instead gets
  /// corrupted metrics rejected by the server as kInvalidArgument.
  static FaultKind ClassifyOutcome(const Result<EvaluationOutcome>& outcome);

  const RetryPolicy& policy() const { return policy_; }
  RngState rng_state() const { return rng_.state(); }
  void set_rng_state(const RngState& state) { rng_.set_state(state); }

 private:
  double NextBackoff(double* previous);

  DbInstanceSimulator* simulator_;
  RetryPolicy policy_;
  Rng rng_;
};

}  // namespace restune

#endif  // RESTUNE_TUNER_SUPERVISOR_H_
