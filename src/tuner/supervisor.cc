#include "tuner/supervisor.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace restune {

namespace {

struct SupervisorMetrics {
  obs::Counter* evaluations;
  obs::Counter* attempts;
  obs::Counter* retries;
  obs::Counter* retries_exhausted;
  obs::Histogram* backoff_seconds;
  // Fault taxonomy, one counter per FaultKind (kNone excluded).
  obs::Counter* faults_by_kind[kNumFaultKinds];

  static SupervisorMetrics* Get() {
    static SupervisorMetrics* m = [] {
      auto* registry = obs::MetricsRegistry::Global();
      // restune-lint: allow(naked-new) -- intentional leak, handle cache
      auto* metrics = new SupervisorMetrics();
      metrics->evaluations =
          registry->GetCounter("restune_eval_evaluations_total");
      metrics->attempts = registry->GetCounter("restune_eval_attempts_total");
      metrics->retries = registry->GetCounter("restune_eval_retries_total");
      metrics->retries_exhausted =
          registry->GetCounter("restune_eval_retries_exhausted_total");
      metrics->backoff_seconds =
          registry->GetHistogram("restune_eval_backoff_seconds");
      for (size_t k = 0; k < kNumFaultKinds; ++k) {
        metrics->faults_by_kind[k] = registry->GetCounter(
            std::string("restune_eval_faults_total{kind=\"") +
            FaultKindName(static_cast<FaultKind>(k)) + "\"}");
      }
      return metrics;
    }();
    return m;
  }
};

}  // namespace

EvaluationSupervisor::EvaluationSupervisor(DbInstanceSimulator* simulator,
                                           RetryPolicy policy, uint64_t seed)
    : simulator_(simulator), policy_(policy), rng_(seed) {}

bool EvaluationSupervisor::IsCorrupted(const Observation& observation) {
  if (!std::isfinite(observation.res) || !std::isfinite(observation.tps) ||
      !std::isfinite(observation.lat)) {
    return true;
  }
  return observation.tps <= 0.0 || observation.lat <= 0.0 ||
         observation.res < 0.0;
}

FaultKind EvaluationSupervisor::ClassifyOutcome(
    const Result<EvaluationOutcome>& outcome) {
  if (!outcome.ok()) return FaultKind::kCrash;
  if (!outcome->ok()) return outcome->fault().kind;
  if (IsCorrupted(outcome->observation())) return FaultKind::kCorruptedMetrics;
  return FaultKind::kNone;
}

double EvaluationSupervisor::NextBackoff(double* previous) {
  double sleep;
  if (policy_.decorrelated_jitter) {
    sleep = rng_.Uniform(policy_.initial_backoff_seconds,
                         std::max(policy_.initial_backoff_seconds,
                                  3.0 * *previous));
  } else {
    sleep = *previous * policy_.backoff_multiplier;
  }
  sleep = std::min(sleep, policy_.max_backoff_seconds);
  *previous = sleep;
  return sleep;
}

Result<SupervisedEvaluation> EvaluationSupervisor::Evaluate(
    const Vector& theta, bool retry_any_fault) {
  RESTUNE_TRACE_SPAN("eval.supervised");
  SupervisorMetrics* metrics = SupervisorMetrics::Get();
  metrics->evaluations->Add();
  const double deadline =
      policy_.deadline_seconds > 0.0
          ? policy_.deadline_seconds
          : policy_.deadline_multiplier *
                simulator_->options().replay_seconds;
  const int max_attempts = std::max(1, policy_.max_attempts);
  // Backoff state: the first backoff equals initial_backoff_seconds for
  // both shapes (decorrelated jitter draws from a degenerate interval).
  double previous_backoff =
      policy_.decorrelated_jitter
          ? policy_.initial_backoff_seconds / 3.0
          : policy_.initial_backoff_seconds / policy_.backoff_multiplier;

  SupervisedEvaluation supervised{EvaluationOutcome(EvaluationFault{}), 0,
                                  0.0, false};
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    supervised.attempts = attempt;
    metrics->attempts->Add();
    RESTUNE_ASSIGN_OR_RETURN(EvaluationOutcome outcome,
                             simulator_->TryEvaluate(theta));

    EvaluationFault fault;
    if (outcome.ok()) {
      if (!IsCorrupted(outcome.observation())) {
        supervised.elapsed_seconds += simulator_->options().replay_seconds;
        supervised.outcome = std::move(outcome);
        return supervised;
      }
      fault.kind = FaultKind::kCorruptedMetrics;
      fault.message = "replay reported non-finite or zero metrics";
      fault.elapsed_seconds = simulator_->options().replay_seconds;
    } else {
      fault = outcome.fault();
    }
    supervised.elapsed_seconds += fault.elapsed_seconds;
    // Deadline classification: whatever the failure looked like, an attempt
    // that burned more than the deadline was killed as a straggler. Stalls
    // are exempt — they never finish at all, so the per-attempt deadline
    // cannot observe them; only the session watchdog terminates a stall.
    if (fault.elapsed_seconds > deadline &&
        fault.kind != FaultKind::kTimeout &&
        fault.kind != FaultKind::kStall) {
      fault.message = "deadline exceeded after " + fault.message;
      fault.kind = FaultKind::kTimeout;
    }

    metrics->faults_by_kind[static_cast<size_t>(fault.kind)]->Add();
    const bool retryable = retry_any_fault || IsRetryableFault(fault.kind);
    if (!retryable || attempt == max_attempts) {
      supervised.retries_exhausted = retryable;
      if (retryable) metrics->retries_exhausted->Add();
      supervised.outcome = EvaluationOutcome(std::move(fault));
      return supervised;
    }
    metrics->retries->Add();
    const double backoff = NextBackoff(&previous_backoff);
    metrics->backoff_seconds->Observe(backoff);
    supervised.backoff_seconds += backoff;
    supervised.elapsed_seconds += backoff;
  }
  return supervised;  // unreachable: the loop always returns
}

}  // namespace restune
