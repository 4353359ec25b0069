#ifndef RESTUNE_TUNER_CHECKPOINT_H_
#define RESTUNE_TUNER_CHECKPOINT_H_

#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "dbsim/fault_injector.h"
#include "dbsim/simulator.h"
#include "gp/observation.h"
#include "obs/metrics.h"
#include "tuner/safety.h"

namespace restune {

/// --- Session checkpoint ------------------------------------------------
///
/// Every tuning session's durable form is a *totally ordered* log of
/// launch and completion records (see tuner/session_core.h). Launches
/// appear in suggestion order (the order advisor RNG draws happened);
/// completions appear in delivery order, which for the event-driven
/// session and the server is generally OUT OF ORDER relative to launches.
/// Advisor state is NOT serialized: replaying the log start to finish
/// through a fresh advisor + safety controller (same seeds, same options)
/// reproduces every internal state bit-for-bit, including mid-flight
/// evaluations that had been launched but not yet delivered when the
/// process died.

enum class EventKind {
  kLaunch = 0,
  kComplete = 1,
};

/// One entry of a session's totally ordered log.
struct EventRecord {
  EventKind kind = EventKind::kLaunch;
  /// Launch sequence number; pairs a completion with its launch.
  uint64_t seq = 0;

  // Launch fields.
  /// The configuration posted for evaluation.
  Vector theta;
  /// True when θ is the frozen-mode safe-config probe (no advisor call was
  /// made — replay must not consume advisor RNG for this launch).
  bool frozen = false;
  /// Safety mode and SLA-monitor verdict at launch time (what the trust
  /// region saw when the suggestion was made).
  SessionMode mode = SessionMode::kHealthy;
  bool sla_violated = false;

  // Completion fields.
  bool failed = false;
  Observation observation;
  FaultKind fault = FaultKind::kNone;
  int attempts = 1;
  double backoff_seconds = 0.0;
  double elapsed_seconds = 0.0;
  /// True when the session watchdog cancelled the pending slot (stall or
  /// over-deadline delivery) rather than the evaluation finishing.
  bool watchdog_killed = false;
  /// Safety state after ingesting this completion — written so resume can
  /// verify the replayed ladder bit-for-bit.
  SessionMode mode_after = SessionMode::kHealthy;
  bool sla_violated_after = false;
};

/// A launched-but-undelivered evaluation at checkpoint time. The simulated
/// outcome is computed eagerly at launch (that is what makes the event loop
/// deterministic), so the record carries the full result plus its delivery
/// time; θ and launch metadata live in the matching kLaunch record.
struct InFlightRecord {
  uint64_t seq = 0;
  /// Absolute simulated-clock time at which the completion is delivered.
  double delivery_seconds = 0.0;
  bool failed = false;
  Observation observation;
  FaultKind fault = FaultKind::kNone;
  int attempts = 1;
  double backoff_seconds = 0.0;
  double elapsed_seconds = 0.0;
  bool watchdog_killed = false;
};

/// Durable state of a `TuningSession` or `EventTuningSession`, written
/// periodically so a killed process can resume mid-session. Mutable RNG
/// streams (simulator noise, fault injector, supervisor jitter) are
/// captured directly; everything advisor-side is captured as the log.
struct SessionCheckpoint {
  /// Number of launches issued (== next seq) and completions ingested.
  uint64_t launched = 0;
  int completed = 0;
  /// Simulated session clock (advanced to each delivery time).
  double clock_seconds = 0.0;
  Observation default_observation;
  SlaConstraints sla;
  std::vector<EventRecord> records;
  std::vector<InFlightRecord> in_flight;
  DbInstanceSimulator::State simulator_state;
  RngState supervisor_rng;
  /// Observability counters at checkpoint time. Replay re-executes advisor
  /// work (inflating the live counters), so resume overwrites them with
  /// this snapshot once replay completes — a resumed run reports the same
  /// totals as the uninterrupted one. Optional in the file format: a
  /// checkpoint without the section loads with an empty snapshot.
  obs::CounterSnapshot metrics;
};

/// The text format starts `restune-event-checkpoint 1`. A file of the
/// retired synchronous format (`restune-checkpoint 1`) loads as
/// kNotImplemented.
Status SaveSessionCheckpoint(const SessionCheckpoint& checkpoint,
                             std::ostream* out);
Result<SessionCheckpoint> LoadSessionCheckpoint(std::istream* in);
/// File variants; saving goes through `WriteFileAtomically`.
Status SaveSessionCheckpointFile(const SessionCheckpoint& checkpoint,
                                 const std::string& path);
Result<SessionCheckpoint> LoadSessionCheckpointFile(const std::string& path);

/// Writes a file atomically: `write` fills `<path>.tmp`, which is renamed
/// over `path` only if every write succeeded. On failure the temp file is
/// removed, so a crash mid-write never leaves a torn checkpoint behind and
/// a half-written one is never resumable.
Status WriteFileAtomically(const std::string& path,
                           const std::function<Status(std::ostream*)>& write);

/// Shared low-level helpers (also used by the server checkpoint).
/// Reads one whitespace-delimited token and requires it to be `want`.
Status ExpectTag(std::istream* in, const std::string& want);
void WriteRngState(std::ostream* out, const RngState& state);
Status ReadRngState(std::istream* in, RngState* state);
void WriteVector(std::ostream* out, const Vector& v);
Status ReadVector(std::istream* in, Vector* v);
void WriteObservation(std::ostream* out, const Observation& obs);
Status ReadObservation(std::istream* in, Observation* obs);
void WriteEventRecord(std::ostream* out, const EventRecord& record);
Status ReadEventRecord(std::istream* in, EventRecord* record);
void WriteInFlightRecord(std::ostream* out, const InFlightRecord& record);
Status ReadInFlightRecord(std::istream* in, InFlightRecord* record);

}  // namespace restune

#endif  // RESTUNE_TUNER_CHECKPOINT_H_
