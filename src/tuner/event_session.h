#ifndef RESTUNE_TUNER_EVENT_SESSION_H_
#define RESTUNE_TUNER_EVENT_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "dbsim/simulator.h"
#include "tuner/advisor.h"
#include "tuner/checkpoint.h"
#include "tuner/safety.h"
#include "tuner/session.h"
#include "tuner/session_core.h"
#include "tuner/supervisor.h"

namespace restune {

/// Options for the event-driven tuning session.
struct EventSessionOptions {
  /// Completions to ingest before the session ends.
  int max_iterations = 200;
  /// Speculative q-CEI width: how many evaluations may be in flight at
  /// once. Suggestions beyond the first are penalized near pending points
  /// so the batch diversifies.
  int max_in_flight = 4;
  /// Relative tolerance when judging SLA feasibility.
  double sla_tolerance = 0.0;
  /// Per-evaluation watchdog deadline in simulated seconds, measured over
  /// the evaluation's whole supervised lifetime (attempts + backoff). A
  /// pending evaluation still undelivered at the deadline has its slot
  /// cancelled: stalls stay kStall, everything else is reclassified
  /// kTimeout. 0 derives `watchdog_multiplier * replay_seconds`.
  double watchdog_deadline_seconds = 0.0;
  double watchdog_multiplier = 12.0;
  /// SLA monitor, trust region, and degraded-mode ladder policy.
  SafetyOptions safety;
  /// Retry/backoff and checkpointing policy (checkpoint_period counts
  /// completions here).
  SessionFaultOptions fault;
  /// Test hook simulating a kill: stop right after ingesting this many
  /// completions, leaving in-flight evaluations pending in the checkpoint.
  /// Pick a multiple of checkpoint_period so the halt write coincides with
  /// a periodic one (byte-identical resume comparison). 0 = disabled.
  int halt_after_completions = 0;
};

/// Always-on tuning loop over a `SessionCore` with the safety ladder: posts
/// evaluation requests to the `EvaluationSupervisor` asynchronously (up to
/// `max_in_flight` speculative suggestions, locally penalized near pending
/// points) and ingests completions in *delivery order* — generally out of
/// order relative to launches. Simulated delivery: each launch's outcome is
/// computed eagerly (so supervisor/simulator RNG is consumed in launch
/// order, making the loop thread-count invariant) and queued until the
/// session clock reaches its delivery time.
///
/// Safety (src/tuner/safety.h): an SLA monitor with hysteresis drives the
/// healthy → constrained → frozen ladder. While constrained, the advisor's
/// acquisition sweep is clamped into the L∞ trust region around the best
/// known-safe config; while frozen, the session stops consulting the
/// advisor and probes the safe config until results come back feasible. A
/// per-evaluation watchdog cancels pending slots that outlive their
/// deadline.
///
/// Durability: the totally ordered launch/completion log plus the pending
/// outcomes is the checkpoint. Resume replays the log through a freshly
/// constructed advisor and safety controller, verifying every replayed
/// suggestion and mode transition bit-for-bit, then re-materializes the
/// pending queue — a killed-and-resumed run continues byte-identically.
class EventTuningSession {
 public:
  EventTuningSession(DbInstanceSimulator* simulator, Advisor* advisor,
                     EventSessionOptions options = {});

  Result<SessionResult> Run();

  /// Continues an interrupted session from `fault.checkpoint_path`; see
  /// class comment. The advisor must be freshly constructed with the
  /// original seeds/options.
  Result<SessionResult> Resume();

  /// The totally ordered event log and the ladder of the last Run() or
  /// Resume() (for tests and post-mortems).
  const std::vector<EventRecord>& records() const { return core_.log(); }
  const SafetyController& safety() const { return *core_.ladder(); }
  /// True when the run stopped via the halt_after_completions test hook.
  bool halted() const { return halted_; }

 private:
  Result<SessionResult> RunInternal(const SessionCheckpoint* resume_from);
  /// Issues one launch through the core, evaluates it eagerly under the
  /// supervisor and the watchdog, and queues the outcome for delivery.
  /// Returns false when the advisor is exhausted (kOutOfRange).
  Result<bool> Launch(EvaluationSupervisor* supervisor);
  /// Delivers the earliest pending outcome to the core and updates
  /// `result`.
  Status Ingest(SessionResult* result);
  /// Applies one delivered completion to the result bookkeeping (history,
  /// best tracking, retry totals). Shared verbatim by the live loop and
  /// checkpoint replay so both account identically.
  void ApplyCompletion(SessionResult* result, const EventRecord& completion,
                       const Vector& theta);
  Status WriteCheckpoint(const SessionResult& result,
                         const EvaluationSupervisor& supervisor);
  double WatchdogDeadline() const;
  void PushPending(InFlightRecord eval);
  InFlightRecord PopPending();

  DbInstanceSimulator* simulator_;
  Advisor* advisor_;
  EventSessionOptions options_;
  SessionCore core_;
  /// Evaluated launches awaiting delivery: a min-heap on (delivery, seq).
  std::vector<InFlightRecord> pending_;
  double clock_seconds_ = 0.0;
  bool advisor_exhausted_ = false;
  bool halted_ = false;
};

}  // namespace restune

#endif  // RESTUNE_TUNER_EVENT_SESSION_H_
