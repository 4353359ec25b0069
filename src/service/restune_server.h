#ifndef RESTUNE_SERVICE_RESTUNE_SERVER_H_
#define RESTUNE_SERVICE_RESTUNE_SERVER_H_

#include <atomic>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "meta/data_repository.h"
#include "service/messages.h"
#include "tuner/checkpoint.h"
#include "tuner/restune_advisor.h"
#include "tuner/safety.h"
#include "tuner/session_core.h"

namespace restune {

/// Options for the tuning server.
struct ServerOptions {
  ResTuneAdvisorOptions advisor;
  /// Archive finished sessions' observations back into the repository (the
  /// paper: "When the tuning task ends, the meta-data of the task is
  /// collected to the data repository").
  bool archive_finished_sessions = true;
  /// Minimum observations a finished session needs to be archived (a
  /// two-iteration session teaches nothing).
  size_t min_observations_to_archive = 10;
  /// Path of the server checkpoint file; empty disables auto-checkpointing.
  /// With a path set, the server snapshots itself via the atomic
  /// `SaveCheckpointFile` every `checkpoint_period` state changes, counted
  /// across all sessions (session start, recommendation issue, evaluation
  /// report, session finish). The call whose state change completes a
  /// period returns only after its snapshot is written, so an acknowledged
  /// call is durable once the checkpoint that covers it lands.
  std::string checkpoint_path;
  int checkpoint_period = 10;
  /// Drive sessions through the degraded-mode ladder (tuner/safety.h) of
  /// their `SessionCore`: frozen sessions probe the last known-safe config
  /// WITHOUT consuming advisor RNG, constrained sessions clamp suggestions
  /// into the L∞ trust region around it, and every event record carries
  /// the mode transition so checkpoint replay verifies the recomputed
  /// ladder. Off by default (pure BO behavior, bit-identical to earlier
  /// servers).
  bool use_event_sessions = false;
  /// Ladder thresholds and monitor tolerance (with use_event_sessions).
  SafetyOptions safety;
  /// Strict SLA tolerance gating safe-config updates — the lenient
  /// `safety.monitor_tolerance` feeds the violation monitor, this one
  /// decides what counts as a genuinely safe configuration (the
  /// two-tolerance rule of the event-driven session).
  double sla_tolerance = 0.0;
};

/// ResTune Server (paper Fig. 2, right side): hosts the data repository and
/// the Knowledge Extraction + Knobs Recommendation components. Drives any
/// number of concurrent tuning sessions, one meta-learner each.
///
/// The server never sees SQL or data — only meta-features and metric
/// tuples, the privacy split the paper's deployment uses.
///
/// Event-driven fault-tolerance contract:
/// * Sessions are driven through an asynchronous event API: every issued
///   recommendation is an outstanding *launch* until its report arrives,
///   and reports may arrive in any order (`RecommendBatch` hands out
///   several speculative recommendations at once, each penalized near the
///   ones still pending, so a fleet of replay workers can evaluate them
///   concurrently).
/// * `Recommend` is idempotent: while recommendations are outstanding, the
///   oldest one is returned again (a client that lost the response can
///   simply re-ask without burning an iteration).
/// * `ReportEvaluation` accepts reports for ANY outstanding iteration —
///   out of order relative to issuance — and is idempotent: a report for
///   an already-processed iteration is a no-op. Reports may carry a
///   `fault`, which is fed to the advisor as failure evidence rather than
///   metrics.
/// * `FinishSession` is idempotent: finishing twice returns the cached
///   summary. Recommend/Report on a finished session fail loudly.
/// * The whole server state (repository, sessions' totally ordered
///   launch/completion logs, finished summaries) checkpoints to a
///   stream/file and restores by deterministic event-log replay;
///   outstanding recommendations are re-derived from unmatched launches,
///   so a restarted server continues mid-session with work still in
///   flight.
///
/// Thread safety: every public method may be called from any thread — a
/// transport layer can dispatch concurrent client requests straight into
/// the server. Each session owns its advisor, so calls on different
/// sessions run in parallel: the server lock `mu_` guards only the session
/// map, the repository, the finished summaries and the id counter, and is
/// held just long enough to look a session up. A session's tuning state
/// sits behind the session's own lock, which serializes that session's
/// calls. Lock order: `ckpt_mu_` → `mu_` → session lock → record lock;
/// no path acquires against it.
///
/// Checkpoints never stop the world. At the end of every mutation a
/// session appends the checkpoint text of its new event records to a
/// published record under its small record lock, and the repository's text
/// is cached per task. A snapshot copies the session list under `mu_`,
/// then concatenates the published records — it never waits on an advisor
/// call in flight — and writes `<path>.tmp` + rename outside every server
/// and session lock. The writer lock `ckpt_mu_` orders snapshots, so an
/// older one never overwrites a newer one. The output is the same v2 text
/// a serial server writes.
///
/// The locking discipline is compiler-checked (clang -Wthread-safety) via
/// the GUARDED_BY/REQUIRES annotations below.
class ResTuneServer {
 public:
  explicit ResTuneServer(ServerOptions options = {});

  /// Registers historical meta-data (e.g. loaded from disk) before serving.
  Status AddHistoricalTask(TuningTask task) EXCLUDES(mu_);
  size_t repository_size() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return repository_.num_tasks();
  }

  /// Opens a tuning session: trains/collects base-learners, computes static
  /// weights from the submitted meta-feature, ingests the default
  /// observation. Returns the session id. Rejects malformed submissions
  /// (zero knob dimension, mismatched vector sizes, non-finite values,
  /// non-positive default throughput/latency).
  Result<uint64_t> StartSession(const TargetTaskSubmission& submission)
      EXCLUDES(mu_, ckpt_mu_);

  /// Next configuration for the session to evaluate. While recommendations
  /// are outstanding the oldest one is returned again (at-least-once
  /// delivery for clients that retry); otherwise a new one is issued.
  Result<KnobRecommendation> Recommend(uint64_t session_id)
      EXCLUDES(mu_, ckpt_mu_);

  /// Speculative batch: tops the session's outstanding set up to `width`
  /// recommendations and returns all of them, oldest first. New
  /// suggestions are penalized near the in-flight ones (constant-liar
  /// q-CEI), so concurrent replay workers get a diverse batch. Re-asking
  /// without reporting returns the same set — the call is idempotent, like
  /// `Recommend`.
  Result<std::vector<KnobRecommendation>> RecommendBatch(uint64_t session_id,
                                                         int width)
      EXCLUDES(mu_, ckpt_mu_);

  /// Feeds an evaluation result back into the session's meta-learner.
  /// Reports for outstanding iterations are accepted in ANY order; reports
  /// for already-processed iterations are accepted as duplicates (no-op);
  /// reports from the future, with malformed metrics, or with a mismatched
  /// θ dimension are rejected.
  Status ReportEvaluation(const EvaluationReport& report)
      EXCLUDES(mu_, ckpt_mu_);

  /// Closes the session; optionally archives its observations as a new
  /// historical task in the repository. Idempotent: finishing an already-
  /// finished session returns its cached summary.
  Result<SessionSummary> FinishSession(uint64_t session_id)
      EXCLUDES(mu_, ckpt_mu_);

  size_t active_sessions() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return sessions_.size();
  }
  size_t finished_sessions() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return finished_.size();
  }

  /// Serializes the full server state (repository, active sessions as
  /// event logs, finished summaries). Advisor internals are not written;
  /// `LoadCheckpoint` rebuilds each advisor by replaying its event log with
  /// bitwise verification against the recorded recommendations.
  Status SaveCheckpoint(std::ostream* out) const EXCLUDES(mu_, ckpt_mu_);
  /// Restores a checkpoint; sessions replay concurrently on the shared
  /// pool. On error the server is left as it was.
  Status LoadCheckpoint(std::istream* in) EXCLUDES(mu_, ckpt_mu_);

  /// File variants; saving goes through `<path>.tmp` + rename, so a crash
  /// mid-write never leaves a torn checkpoint. Every save is timed into
  /// `restune_server_checkpoint_seconds`; a failed one also increments
  /// `restune_server_checkpoint_failures_total`.
  Status SaveCheckpointFile(const std::string& path) const
      EXCLUDES(mu_, ckpt_mu_);
  Status LoadCheckpointFile(const std::string& path) EXCLUDES(mu_, ckpt_mu_);

  /// Prometheus text exposition of the process-wide metrics registry, with
  /// server-level gauges (active/finished sessions, repository size)
  /// refreshed first. This is what a scrape endpoint would serve; exposed
  /// as a string so transports stay out of the core.
  std::string MetricsText() const EXCLUDES(mu_);

 private:
  /// Tuning state of one session. Inside a `Session` it is guarded by the
  /// session lock; a free-standing one (being built by StartSession or a
  /// checkpoint restore) belongs to the thread building it.
  struct SessionState {
    std::string task_name;
    Vector meta_feature;
    std::unique_ptr<ResTuneAdvisor> advisor;
    SlaConstraints sla;
    std::vector<Observation> observations;
    Vector best_theta;
    double best_feasible_res = 0.0;
    bool has_feasible = false;
    // --- fault tolerance ---
    size_t knob_dim = 0;
    Vector default_theta;
    Observation default_observation;
    /// Repository size when the session started; replay after a restart
    /// trains base-learners from exactly this prefix, so tasks archived
    /// later do not silently change the ensemble mid-session.
    size_t repository_snapshot = 0;
    /// The tuning loop over `advisor`, launch seq == iteration (from 1).
    /// Its outstanding launches are the issued-but-unreported
    /// recommendations; its log (completions in report-arrival order) is
    /// the durable session. With `use_event_sessions` it drives the ladder.
    SessionCore core;
  };

  /// A session as parsed from a checkpoint, before its log is replayed.
  struct SessionBlueprint {
    uint64_t id = 0;
    SessionState state;
    /// Launches the session header records; the log must agree.
    int iteration = 0;
    std::vector<EventRecord> log;
  };

  /// A session's checkpoint text as of its last completed mutation.
  struct SessionRecord {
    size_t knob_dim = 0;
    int iteration = 0;
    size_t repository_snapshot = 0;
    bool has_feasible = false;
    /// Name, meta-feature, SLA and default: fixed for the session's life.
    std::string body;
    /// `WriteEventRecord` text of the first `num_events` log records.
    std::string log_text;
    size_t num_events = 0;
  };

  struct Session {
    /// Takes over `initial` and formats the record's fixed part.
    explicit Session(SessionState initial);

    Mutex mu;
    SessionState state GUARDED_BY(mu);
    /// Set by FinishSession under both `mu_` and `mu`; a call that looked
    /// the session up before the finish sees it and fails typed.
    bool closed GUARDED_BY(mu) = false;

    /// Taken after `mu` by the publisher and alone by snapshots, so a
    /// snapshot waits at most for one record append.
    Mutex record_mu;
    SessionRecord record GUARDED_BY(record_mu);
  };

  struct FinishedSession {
    SessionSummary summary;
    /// The summary's checkpoint text.
    std::string text;
  };

  static std::vector<BaseLearner> TrainSessionLearners(
      const DataRepository& repository, size_t knob_dim,
      size_t repository_snapshot);
  /// Replays a restored session's event log through a fresh advisor built
  /// on `learners`. Touches only the blueprint, so restores of different
  /// sessions run concurrently.
  Result<SessionState> RebuildSession(SessionBlueprint blueprint,
                                      std::vector<BaseLearner> learners) const;
  /// Looks up a session that can still take traffic: kFailedPrecondition
  /// once finished, kNotFound if it never existed.
  Result<std::shared_ptr<Session>> FindActiveSession(uint64_t session_id)
      const EXCLUDES(mu_);
  /// Issues one new recommendation for the session (advances the advisor,
  /// appends a launch record, registers the outstanding entry).
  Result<KnobRecommendation> IssueRecommendation(uint64_t session_id,
                                                 Session* session)
      REQUIRES(session->mu);
  /// Appends the log records added since the last publication to the
  /// session's published record. Called at the end of every mutation.
  static void PublishRecord(Session* session) REQUIRES(session->mu);
  /// Counts `n` state changes; true when they complete a checkpoint period.
  bool CountMutations(uint64_t n);
  /// Writes the auto-checkpoint; a failure is logged, not returned.
  void AutoCheckpoint() const EXCLUDES(mu_, ckpt_mu_);
  /// Assembles the v2 checkpoint text from the cached and published pieces.
  Status WriteSnapshot(std::ostream* out) const REQUIRES(ckpt_mu_)
      EXCLUDES(mu_);
  /// Parses the sessions section of a checkpoint into blueprints.
  static Status ParseSessions(std::istream* in,
                              std::vector<SessionBlueprint>* out);

  const ServerOptions options_;  // immutable after construction
  /// Guards the session map, the repository, the finished summaries and
  /// the id counter; see the class comment for the lock order.
  mutable Mutex mu_;
  DataRepository repository_ GUARDED_BY(mu_);
  std::map<uint64_t, std::shared_ptr<Session>> sessions_ GUARDED_BY(mu_);
  std::map<uint64_t, FinishedSession> finished_ GUARDED_BY(mu_);
  uint64_t next_session_id_ GUARDED_BY(mu_) = 1;
  std::atomic<uint64_t> mutations_{0};

  /// Writer lock: serializes checkpoint writes and LoadCheckpoint.
  mutable Mutex ckpt_mu_;
  /// Checkpoint text of the first `repository_text_.size()` repository
  /// tasks, one string per task. The repository only grows between loads,
  /// so the cache only appends.
  mutable std::vector<std::string> repository_text_ GUARDED_BY(ckpt_mu_);
};

}  // namespace restune

#endif  // RESTUNE_SERVICE_RESTUNE_SERVER_H_
