#ifndef RESTUNE_TUNER_SESSION_H_
#define RESTUNE_TUNER_SESSION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "dbsim/simulator.h"
#include "tuner/advisor.h"
#include "tuner/checkpoint.h"
#include "tuner/session_core.h"
#include "tuner/supervisor.h"

namespace restune {

/// Fault-tolerance policy of a tuning session: how evaluations are
/// supervised and where session state is checkpointed for crash recovery.
/// Classified failures always feed back into the advisor as hard SLA
/// violations (constraint evidence + knob quarantine).
struct SessionFaultOptions {
  RetryPolicy retry;
  /// Path of the session checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Checkpoint every this many iterations (a final checkpoint is always
  /// written when a path is set).
  int checkpoint_period = 10;
  /// Seed of the supervisor's backoff-jitter RNG.
  uint64_t supervisor_seed = 0x5eed;
};

/// Options for a tuning session.
struct SessionOptions {
  int max_iterations = 200;
  /// Relative tolerance when judging SLA feasibility (the paper accepts 5%
  /// measurement deviation).
  double sla_tolerance = 0.0;
  /// Stop when res/tps/lat all change by less than `convergence_delta`
  /// (relative) for `convergence_window` consecutive iterations — the
  /// paper's convergence rule (0.5% over 10 iterations, Section 4).
  bool stop_on_convergence = false;
  double convergence_delta = 0.005;
  int convergence_window = 10;
  /// Safety rail for production/online-troubleshooting use (Section 1's
  /// recovery-time framing): abort the session if this many consecutive
  /// suggestions violate the SLA. Failed evaluations count as violations.
  /// 0 disables the guard.
  int max_consecutive_infeasible = 0;
  /// Retry/backoff and checkpointing policy.
  SessionFaultOptions fault;
};

/// Per-iteration record of a tuning session.
struct IterationRecord {
  int iteration = 0;
  Observation observation;
  bool feasible = false;
  /// Best feasible resource value up to and including this iteration
  /// (default-config value until something better is found).
  double best_feasible_res = 0.0;
  IterationTiming timing;
  double replay_seconds = 0.0;
  /// True when the evaluation failed for good (after retries); the
  /// observation then carries only θ, not metrics.
  bool failed = false;
  /// Final fault classification (kNone on success).
  FaultKind fault = FaultKind::kNone;
  /// Evaluation attempts the supervisor spent on this iteration.
  int attempts = 1;
  /// Total simulated backoff slept between this iteration's attempts.
  double backoff_seconds = 0.0;
};

/// Outcome of a tuning session.
struct SessionResult {
  Observation default_observation;
  SlaConstraints sla;
  std::vector<IterationRecord> history;
  double best_feasible_res = 0.0;
  Vector best_theta;
  int best_iteration = 0;  // 0 = default configuration
  bool converged = false;
  /// True when the session ended because the infeasibility safety rail
  /// tripped (the advisor kept violating the SLA).
  bool aborted_by_safeguard = false;
  /// Iterations whose evaluation failed after all supervision.
  int failed_iterations = 0;
  /// Extra evaluation attempts spent on retries across the whole session.
  int total_retries = 0;
  /// True when this result continues an interrupted run from a checkpoint.
  bool resumed = false;

  /// Iterations until the best feasible value was first reached within
  /// `rel_tol` (paper Table 4's "Iteration" rows).
  int IterationsToBest(double rel_tol = 0.0) const;

  /// Writes the per-iteration history as CSV
  /// (iteration,res,tps,lat,feasible,best_feasible_res,failed,fault,attempts)
  /// for plotting.
  Status WriteCsv(const std::string& path) const;
};

/// Drives one tuning task end to end: evaluates the DBA default to fix the
/// SLA thresholds, then loops advisor suggestion → supervised replay →
/// feedback, tracking the best feasible configuration (the paper's tuning
/// loop, Section 4). The loop is a `SessionCore` with no safety ladder and
/// one launch in flight, plus the paper's convergence rule and the
/// infeasibility safeguard. Every evaluation runs under the
/// `EvaluationSupervisor` (deadline, bounded retries with backoff);
/// persistent failures feed back into the advisor as hard SLA violations,
/// and session state is periodically checkpointed when a checkpoint path
/// is configured.
class TuningSession {
 public:
  TuningSession(DbInstanceSimulator* simulator, Advisor* advisor,
                SessionOptions options = {});

  Result<SessionResult> Run();

  /// Continues an interrupted session from `fault.checkpoint_path`. The
  /// advisor (which must be freshly constructed with the original seeds and
  /// options) is rebuilt by replaying the checkpoint's event log — each
  /// replayed suggestion is verified bitwise against the recorded θ, so a
  /// divergent advisor configuration fails loudly instead of silently
  /// continuing a different run. The log must alternate launch k,
  /// completion k from the first seq, and must end at the first stop
  /// condition it reaches. The simulator's and supervisor's RNG streams are
  /// restored, making the continuation byte-identical to the uninterrupted
  /// run.
  Result<SessionResult> Resume();

 private:
  Result<SessionResult> RunInternal(const SessionCheckpoint* resume_from);
  Status WriteCheckpoint(const SessionResult& result, const SessionCore& core,
                         const EvaluationSupervisor& supervisor);

  DbInstanceSimulator* simulator_;
  Advisor* advisor_;
  SessionOptions options_;
};

}  // namespace restune

#endif  // RESTUNE_TUNER_SESSION_H_
