#include "service/restune_server.h"

#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace restune {
namespace {

bool AllFinite(const Vector& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// A measured observation the server is willing to learn from: finite
/// everywhere, throughput and latency strictly positive, resource
/// non-negative.
Status ValidateMetrics(const Observation& obs) {
  if (!std::isfinite(obs.res) || !std::isfinite(obs.tps) ||
      !std::isfinite(obs.lat)) {
    return Status::InvalidArgument("observation metrics must be finite");
  }
  if (obs.res < 0.0) {
    return Status::InvalidArgument("resource usage must be non-negative");
  }
  if (obs.tps <= 0.0 || obs.lat <= 0.0) {
    return Status::InvalidArgument(
        "throughput and latency must be positive; report a fault instead of "
        "zeroed metrics for a failed replay");
  }
  if (!AllFinite(obs.theta) || !AllFinite(obs.internals)) {
    return Status::InvalidArgument("observation vectors must be finite");
  }
  return Status::OK();
}

void WriteString(std::ostream* out, const std::string& s) {
  *out << s.size() << ' ' << s << '\n';
}

Status ReadString(std::istream* in, std::string* s) {
  size_t n = 0;
  if (!(*in >> n) || n > (1u << 20)) {
    return Status::IoError("bad string in server checkpoint");
  }
  if (in->get() != ' ') {  // the single separator space
    return Status::IoError("bad string separator in server checkpoint");
  }
  s->resize(n);
  if (n > 0 && !in->read(s->data(), static_cast<std::streamsize>(n))) {
    return Status::IoError("truncated string in server checkpoint");
  }
  return Status::OK();
}

constexpr const char* kMagic = "restune-server-checkpoint";
/// v2: sessions persist a totally ordered launch/completion log
/// (EventRecord) instead of the v1 iteration event list; outstanding
/// recommendations are re-derived from unmatched launches at load.
constexpr int kVersion = 2;

/// Hard ceiling on speculative batch width — a fleet larger than this is a
/// client bug, and unbounded width would let one request spin the advisor
/// arbitrarily long.
constexpr int kMaxBatchWidth = 64;

/// Formats checkpoint text into a string at the checkpoint's number
/// precision, so pieces formatted apart concatenate to the bytes one
/// stream would have written.
template <typename WriteFn>
std::string FormatText(const WriteFn& write) {
  std::ostringstream out;
  out.precision(17);  // exact double round-trip
  write(&out);
  return out.str();
}

void WriteTask(std::ostream* out, const TuningTask& task) {
  *out << "task\n";
  WriteString(out, task.name);
  WriteString(out, task.hardware);
  WriteString(out, task.workload);
  *out << "meta ";
  WriteVector(out, task.meta_feature);
  *out << "obs " << task.observations.size() << '\n';
  for (const Observation& obs : task.observations) {
    WriteObservation(out, obs);
  }
}

void WriteSummary(std::ostream* out, uint64_t id,
                  const SessionSummary& summary) {
  *out << "summary " << id << ' ' << summary.iterations << ' '
       << summary.best_feasible_res << ' '
       << (summary.archived_to_repository ? 1 : 0) << '\n';
  WriteVector(out, summary.best_theta);
}

/// `WriteEventRecord` text of `log[first..]`.
std::string EventRecordsText(const std::vector<EventRecord>& log,
                             size_t first) {
  return FormatText([&log, first](std::ostream* out) {
    for (size_t e = first; e < log.size(); ++e) WriteEventRecord(out, log[e]);
  });
}

Status FinishedError(uint64_t session_id) {
  return Status::FailedPrecondition(StringPrintf(
      "session %llu already finished", (unsigned long long)session_id));
}

struct CheckpointMetrics {
  obs::Histogram* seconds;
  obs::Counter* failures;

  static CheckpointMetrics* Get() {
    static CheckpointMetrics* m = [] {
      auto* registry = obs::MetricsRegistry::Global();
      // restune-lint: allow(naked-new) -- intentional leak, handle cache
      auto* metrics = new CheckpointMetrics();
      metrics->seconds =
          registry->GetHistogram("restune_server_checkpoint_seconds");
      metrics->failures =
          registry->GetCounter("restune_server_checkpoint_failures_total");
      return metrics;
    }();
    return m;
  }
};

}  // namespace

ResTuneServer::ResTuneServer(ServerOptions options)
    : options_(options) {}

Status ResTuneServer::AddHistoricalTask(TuningTask task) {
  MutexLock lock(&mu_);
  return repository_.AddTask(std::move(task));
}

std::vector<BaseLearner> ResTuneServer::TrainSessionLearners(
    const DataRepository& repository, size_t knob_dim,
    size_t repository_snapshot) {
  // Knowledge extraction: base-learners over histories with a matching
  // knob space (dimension is the compatibility proxy in this in-process
  // server; a deployment would key on a space identifier). Only the first
  // `repository_snapshot` tasks participate, so checkpoint replay trains
  // the exact ensemble the session originally saw even if more tasks were
  // archived afterwards.
  size_t index = 0;
  return repository.TrainBaseLearners([&](const TuningTask& t) {
    const size_t i = index++;
    return i < repository_snapshot && !t.observations.empty() &&
           t.observations[0].theta.size() == knob_dim;
  });
}

Result<std::shared_ptr<ResTuneServer::Session>>
ResTuneServer::FindActiveSession(uint64_t session_id) const {
  MutexLock lock(&mu_);
  if (finished_.count(session_id) > 0) return FinishedError(session_id);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound(StringPrintf("no session %llu",
                                         (unsigned long long)session_id));
  }
  return it->second;
}

ResTuneServer::Session::Session(SessionState initial)
    : state(std::move(initial)) {
  std::ostringstream body;
  body.precision(17);  // exact double round-trip
  WriteString(&body, state.task_name);
  body << "meta ";
  WriteVector(&body, state.meta_feature);
  body << "sla " << state.sla.min_tps << ' ' << state.sla.max_lat << '\n';
  body << "default_theta ";
  WriteVector(&body, state.default_theta);
  body << "default_obs\n";
  WriteObservation(&body, state.default_observation);
  record.knob_dim = state.knob_dim;
  record.repository_snapshot = state.repository_snapshot;
  record.body = body.str();
}

void ResTuneServer::PublishRecord(Session* session) {
  MutexLock lock(&session->record_mu);
  SessionRecord& record = session->record;
  const SessionCore& core = session->state.core;
  record.iteration = static_cast<int>(core.launches());
  record.has_feasible = session->state.has_feasible;
  // The log IS the durable session: outstanding recommendations are the
  // launches without a matching completion and are re-derived at load.
  if (record.num_events < core.log().size()) {
    record.log_text += EventRecordsText(core.log(), record.num_events);
    record.num_events = core.log().size();
  }
}

bool ResTuneServer::CountMutations(uint64_t n) {
  // Relaxed: the count only elects which call writes a checkpoint; what the
  // checkpoint contains is ordered by the session and record locks.
  const uint64_t before = mutations_.fetch_add(n, std::memory_order_relaxed);
  if (options_.checkpoint_path.empty() || options_.checkpoint_period <= 0) {
    return false;
  }
  const uint64_t period = static_cast<uint64_t>(options_.checkpoint_period);
  return before / period != (before + n) / period;
}

void ResTuneServer::AutoCheckpoint() const {
  const Status status = SaveCheckpointFile(options_.checkpoint_path);
  if (!status.ok()) {
    RESTUNE_LOG(kWarning) << "server auto-checkpoint failed: "
                          << status.ToString();
  }
}

Result<uint64_t> ResTuneServer::StartSession(
    const TargetTaskSubmission& submission) {
  if (submission.knob_dim == 0) {
    return Status::InvalidArgument("knob_dim must be positive");
  }
  if (submission.default_theta.size() != submission.knob_dim) {
    return Status::InvalidArgument("default_theta dimension mismatch");
  }
  if (submission.default_observation.theta.size() != submission.knob_dim) {
    return Status::InvalidArgument("default observation dimension mismatch");
  }
  if (!AllFinite(submission.default_theta)) {
    return Status::InvalidArgument("default_theta must be finite");
  }
  if (!AllFinite(submission.meta_feature)) {
    return Status::InvalidArgument("meta_feature must be finite");
  }
  RESTUNE_RETURN_IF_ERROR(ValidateMetrics(submission.default_observation));

  SessionState state;
  state.task_name = submission.task_name;
  state.meta_feature = submission.meta_feature;
  state.knob_dim = submission.knob_dim;
  state.default_theta = submission.default_theta;
  state.default_observation = submission.default_observation;
  // The id is taken in arrival order, with the repository snapshot; the
  // advisor is built outside the lock. An id whose session then fails to
  // start is not reused.
  uint64_t id = 0;
  std::vector<BaseLearner> learners;
  {
    MutexLock lock(&mu_);
    id = next_session_id_++;
    state.repository_snapshot = repository_.num_tasks();
    learners = TrainSessionLearners(repository_, state.knob_dim,
                                    state.repository_snapshot);
  }
  state.advisor = std::make_unique<ResTuneAdvisor>(
      submission.knob_dim, submission.default_theta, std::move(learners),
      submission.meta_feature, options_.advisor);
  state.sla = SlaConstraints{submission.default_observation.tps,
                             submission.default_observation.lat};
  RESTUNE_RETURN_IF_ERROR(
      state.advisor->Begin(submission.default_observation, state.sla));
  state.observations.push_back(submission.default_observation);
  state.best_theta = submission.default_theta;
  state.best_feasible_res = submission.default_observation.res;
  state.has_feasible = true;
  state.core = SessionCore(state.advisor.get(), /*first_seq=*/1);
  if (options_.use_event_sessions) {
    state.core.EnableLadder(options_.safety, state.sla, options_.sla_tolerance,
                            submission.default_theta,
                            submission.default_observation.res);
  }

  auto session = std::make_shared<Session>(std::move(state));
  Session* s = session.get();
  {
    MutexLock lock(&s->mu);
    PublishRecord(s);  // before the session becomes visible to snapshots
  }
  {
    MutexLock lock(&mu_);
    sessions_.emplace(id, std::move(session));
  }
  if (CountMutations(1)) AutoCheckpoint();
  return id;
}

Result<KnobRecommendation> ResTuneServer::Recommend(uint64_t session_id) {
  RESTUNE_ASSIGN_OR_RETURN(const std::shared_ptr<Session> session,
                           FindActiveSession(session_id));
  Session* s = session.get();
  KnobRecommendation rec;
  {
    MutexLock lock(&s->mu);
    if (s->closed) return FinishedError(session_id);
    // At-least-once delivery: while recommendations are outstanding,
    // re-asking returns the oldest instead of advancing the advisor — a
    // client retry after a lost response must not burn iterations or fork
    // the GP state.
    const std::map<uint64_t, Vector>& outstanding =
        s->state.core.outstanding();
    if (!outstanding.empty()) {
      const auto& [iteration, theta] = *outstanding.begin();
      rec.session_id = session_id;
      rec.iteration = static_cast<int>(iteration);
      rec.theta = theta;
      return rec;
    }
    RESTUNE_ASSIGN_OR_RETURN(rec, IssueRecommendation(session_id, s));
    PublishRecord(s);
  }
  if (CountMutations(1)) AutoCheckpoint();
  return rec;
}

Result<KnobRecommendation> ResTuneServer::IssueRecommendation(
    uint64_t session_id, Session* session) {
  RESTUNE_ASSIGN_OR_RETURN(const EventRecord* launch,
                           session->state.core.Launch());
  KnobRecommendation rec;
  rec.session_id = session_id;
  rec.iteration = static_cast<int>(launch->seq);
  rec.theta = launch->theta;
  return rec;
}

Result<std::vector<KnobRecommendation>> ResTuneServer::RecommendBatch(
    uint64_t session_id, int width) {
  if (width < 1 || width > kMaxBatchWidth) {
    return Status::InvalidArgument(
        StringPrintf("batch width must be in [1, %d]", kMaxBatchWidth));
  }
  RESTUNE_ASSIGN_OR_RETURN(const std::shared_ptr<Session> session,
                           FindActiveSession(session_id));
  Session* s = session.get();
  uint64_t issued = 0;
  Status status = Status::OK();
  std::vector<KnobRecommendation> batch;
  {
    MutexLock lock(&s->mu);
    if (s->closed) return FinishedError(session_id);
    const std::map<uint64_t, Vector>& outstanding =
        s->state.core.outstanding();
    while (outstanding.size() < static_cast<size_t>(width)) {
      status = IssueRecommendation(session_id, s).status();
      if (!status.ok()) break;
      ++issued;
    }
    // Recommendations issued before a failure stay issued and durable.
    if (issued > 0) PublishRecord(s);
    if (status.ok()) {
      batch.reserve(outstanding.size());
      for (const auto& [iteration, theta] : outstanding) {
        KnobRecommendation rec;
        rec.session_id = session_id;
        rec.iteration = static_cast<int>(iteration);
        rec.theta = theta;
        batch.push_back(std::move(rec));
      }
    }
  }
  if (CountMutations(issued)) AutoCheckpoint();
  if (!status.ok()) return status;
  return batch;
}

Status ResTuneServer::ReportEvaluation(const EvaluationReport& report) {
  RESTUNE_ASSIGN_OR_RETURN(const std::shared_ptr<Session> session,
                           FindActiveSession(report.session_id));
  Session* s = session.get();
  {
    MutexLock lock(&s->mu);
    if (s->closed) return FinishedError(report.session_id);
    SessionState& state = s->state;
    const uint64_t launches = state.core.launches();
    if (report.iteration <= 0 ||
        static_cast<uint64_t>(report.iteration) > launches) {
      return Status::InvalidArgument(
          StringPrintf("report for iteration %d, but session is at %llu",
                       report.iteration, (unsigned long long)launches));
    }
    EventRecord completion;
    completion.seq = static_cast<uint64_t>(report.iteration);
    if (state.core.outstanding().count(completion.seq) == 0) {
      // The iteration was already processed — a duplicate from a client
      // retry.
      return Status::OK();
    }
    if (report.fault != FaultKind::kNone) {
      // The replay failed; there are no metrics. The recommended θ (not
      // whatever the client echoed back) is what failed, and it becomes
      // constraint evidence for the advisor.
      completion.failed = true;
      completion.fault = report.fault;
    } else {
      if (report.observation.theta.size() != state.knob_dim) {
        return Status::InvalidArgument("report theta dimension mismatch");
      }
      RESTUNE_RETURN_IF_ERROR(ValidateMetrics(report.observation));
      completion.observation = report.observation;
    }
    RESTUNE_RETURN_IF_ERROR(state.core.Complete(std::move(completion)).status());
    if (report.fault == FaultKind::kNone) {
      state.observations.push_back(report.observation);
      if (state.sla.IsFeasible(report.observation) &&
          report.observation.res < state.best_feasible_res) {
        state.best_feasible_res = report.observation.res;
        state.best_theta = report.observation.theta;
        state.has_feasible = true;
      }
    }
    PublishRecord(s);
  }
  if (CountMutations(1)) AutoCheckpoint();
  return Status::OK();
}

Result<SessionSummary> ResTuneServer::FinishSession(uint64_t session_id) {
  std::shared_ptr<Session> session;
  {
    MutexLock lock(&mu_);
    const auto done = finished_.find(session_id);
    if (done != finished_.end()) {
      return done->second.summary;  // idempotent finish
    }
    const auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("unknown session");
    }
    session = it->second;
  }
  Session* s = session.get();
  {
    // Wait out a call in flight on this session before taking `mu_`, so
    // the server lock is not held across someone else's advisor call.
    MutexLock drain(&s->mu);
  }

  SessionSummary summary;
  {
    MutexLock lock(&mu_);
    MutexLock session_lock(&s->mu);
    if (s->closed) {
      // A racing FinishSession won; answer with its summary.
      const auto done = finished_.find(session_id);
      if (done == finished_.end()) return FinishedError(session_id);
      return done->second.summary;
    }
    s->closed = true;
    SessionState& state = s->state;
    summary.session_id = session_id;
    summary.iterations = static_cast<int>(state.core.launches());
    summary.best_theta = state.best_theta;
    summary.best_feasible_res = state.best_feasible_res;

    if (options_.archive_finished_sessions &&
        state.observations.size() >= options_.min_observations_to_archive) {
      TuningTask task;
      task.name = state.task_name;
      task.workload = state.task_name;
      task.hardware = "client";
      task.meta_feature = state.meta_feature;
      task.observations = std::move(state.observations);
      summary.archived_to_repository =
          repository_.AddTask(std::move(task)).ok();
    }
    sessions_.erase(session_id);
    FinishedSession finished;
    finished.summary = summary;
    finished.text = FormatText([&](std::ostream* out) {
      WriteSummary(out, session_id, summary);
    });
    finished_.emplace(session_id, std::move(finished));
  }
  if (CountMutations(1)) AutoCheckpoint();
  return summary;
}

Status ResTuneServer::SaveCheckpoint(std::ostream* out) const {
  MutexLock write_lock(&ckpt_mu_);
  return WriteSnapshot(out);
}

Status ResTuneServer::WriteSnapshot(std::ostream* out) const {
  // Copy what `mu_` guards in one short critical section: the snapshot is
  // the server as of that moment, plus whatever the listed sessions
  // publish before their records are read below. Sessions never touch
  // `mu_`-guarded state, so that combination is a state a serial server
  // could have reached.
  uint64_t next_id = 0;
  size_t num_tasks = 0;
  size_t num_finished = 0;
  std::string finished_text;
  std::vector<std::pair<uint64_t, std::shared_ptr<Session>>> sessions;
  while (true) {
    MutexLock lock(&mu_);
    const std::vector<TuningTask>& tasks = repository_.tasks();
    if (repository_text_.size() < tasks.size()) {
      // Cache one task per lock hold: formatting a task takes about a
      // millisecond, and copying tasks out first would cost their memory.
      const TuningTask& task = tasks[repository_text_.size()];
      repository_text_.push_back(FormatText(
          [&task](std::ostream* task_out) { WriteTask(task_out, task); }));
      continue;
    }
    next_id = next_session_id_;
    num_tasks = tasks.size();
    num_finished = finished_.size();
    for (const auto& [id, finished] : finished_) {
      finished_text += finished.text;
    }
    sessions.assign(sessions_.begin(), sessions_.end());
    break;
  }

  out->precision(17);  // exact double round-trip
  *out << kMagic << ' ' << kVersion << '\n';
  *out << "next_id " << next_id << '\n';
  *out << "tasks " << num_tasks << '\n';
  for (size_t i = 0; i < num_tasks; ++i) *out << repository_text_[i];
  *out << "finished " << num_finished << '\n' << finished_text;
  *out << "sessions " << sessions.size() << '\n';
  std::string text;
  for (const auto& [id, session] : sessions) {
    Session* s = session.get();
    text.clear();
    {
      MutexLock lock(&s->record_mu);
      text += "session " + std::to_string(id) + ' ' +
              std::to_string(s->record.knob_dim) + ' ' +
              std::to_string(s->record.iteration) + ' ' +
              std::to_string(s->record.repository_snapshot) + ' ' +
              (s->record.has_feasible ? "1" : "0") + '\n';
      text += s->record.body;
      text += "log " + std::to_string(s->record.num_events) + '\n';
      text += s->record.log_text;
    }
    out->write(text.data(), static_cast<std::streamsize>(text.size()));
  }
  *out << "end\n";
  if (!out->good()) return Status::IoError("server checkpoint write failed");
  return Status::OK();
}

Result<ResTuneServer::SessionState> ResTuneServer::RebuildSession(
    SessionBlueprint blueprint, std::vector<BaseLearner> learners) const {
  SessionState session = std::move(blueprint.state);
  session.advisor = std::make_unique<ResTuneAdvisor>(
      session.knob_dim, session.default_theta, std::move(learners),
      session.meta_feature, options_.advisor);
  RESTUNE_RETURN_IF_ERROR(
      session.advisor->Begin(session.default_observation, session.sla));
  session.observations.clear();
  session.observations.push_back(session.default_observation);
  session.best_theta = session.default_theta;
  session.best_feasible_res = session.default_observation.res;
  session.core = SessionCore(session.advisor.get(), /*first_seq=*/1);
  if (options_.use_event_sessions) {
    session.core.EnableLadder(options_.safety, session.sla,
                              options_.sla_tolerance, session.default_theta,
                              session.default_observation.res);
  }

  // Completions feed the advisor in the same out-of-order arrival sequence
  // the original server saw; a replay that diverges from the recorded θs
  // means the server was reconstructed with different advisor options or a
  // different repository, and continuing would fork every session.
  RESTUNE_RETURN_IF_ERROR(session.core.Replay(
      std::move(blueprint.log),
      [&session](const EventRecord& completion, const Vector&) {
        if (!completion.failed) {
          const Observation& obs = completion.observation;
          session.observations.push_back(obs);
          if (session.sla.IsFeasible(obs) &&
              obs.res < session.best_feasible_res) {
            session.best_feasible_res = obs.res;
            session.best_theta = obs.theta;
          }
        }
        return Status::OK();
      }));
  if (session.core.launches() !=
      static_cast<uint64_t>(blueprint.iteration)) {
    return Status::FailedPrecondition(StringPrintf(
        "server checkpoint session header records %d launches, its log %llu",
        blueprint.iteration,
        (unsigned long long)session.core.launches()));
  }
  return session;
}

Status ResTuneServer::LoadCheckpoint(std::istream* in) {
  std::string magic;
  int version = 0;
  if (!(*in >> magic >> version) || magic != kMagic) {
    return Status::IoError("not a restune server checkpoint");
  }
  if (version != kVersion) {
    return Status::NotImplemented("unsupported server checkpoint version " +
                                  std::to_string(version));
  }
  uint64_t next_id = 1;
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "next_id"));
  if (!(*in >> next_id)) {
    return Status::IoError("bad next_id in server checkpoint");
  }

  DataRepository repository;
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "tasks"));
  size_t num_tasks = 0;
  if (!(*in >> num_tasks) || num_tasks > (1u << 20)) {
    return Status::IoError("bad task count in server checkpoint");
  }
  for (size_t i = 0; i < num_tasks; ++i) {
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "task"));
    TuningTask task;
    RESTUNE_RETURN_IF_ERROR(ReadString(in, &task.name));
    RESTUNE_RETURN_IF_ERROR(ReadString(in, &task.hardware));
    RESTUNE_RETURN_IF_ERROR(ReadString(in, &task.workload));
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "meta"));
    RESTUNE_RETURN_IF_ERROR(ReadVector(in, &task.meta_feature));
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "obs"));
    size_t num_obs = 0;
    if (!(*in >> num_obs) || num_obs > (1u << 24)) {
      return Status::IoError("bad observation count in server checkpoint");
    }
    task.observations.resize(num_obs);
    for (Observation& obs : task.observations) {
      RESTUNE_RETURN_IF_ERROR(ReadObservation(in, &obs));
    }
    RESTUNE_RETURN_IF_ERROR(repository.AddTask(std::move(task)));
  }

  std::map<uint64_t, FinishedSession> finished;
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "finished"));
  size_t num_finished = 0;
  if (!(*in >> num_finished) || num_finished > (1u << 24)) {
    return Status::IoError("bad finished count in server checkpoint");
  }
  for (size_t i = 0; i < num_finished; ++i) {
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "summary"));
    SessionSummary summary;
    int archived = 0;
    if (!(*in >> summary.session_id >> summary.iterations >>
          summary.best_feasible_res >> archived)) {
      return Status::IoError("bad summary in server checkpoint");
    }
    summary.archived_to_repository = archived != 0;
    RESTUNE_RETURN_IF_ERROR(ReadVector(in, &summary.best_theta));
    FinishedSession entry;
    entry.text = FormatText([&summary](std::ostream* out) {
      WriteSummary(out, summary.session_id, summary);
    });
    entry.summary = std::move(summary);
    finished.emplace(entry.summary.session_id, std::move(entry));
  }

  std::vector<SessionBlueprint> blueprints;
  RESTUNE_RETURN_IF_ERROR(ParseSessions(in, &blueprints));

  // Base-learners come from the restored repository, trained serially so
  // the shared cache fills in a fixed order. Each session's replay then
  // touches only its own blueprint, so the replays run concurrently.
  const size_t n = blueprints.size();
  std::vector<std::vector<BaseLearner>> learners(n);
  for (size_t i = 0; i < n; ++i) {
    const SessionState& blueprint = blueprints[i].state;
    learners[i] = TrainSessionLearners(repository, blueprint.knob_dim,
                                       blueprint.repository_snapshot);
  }
  std::vector<std::shared_ptr<Session>> rebuilt(n);
  std::vector<Status> statuses(n, Status::OK());
  ThreadPool::Shared()->ParallelFor(n, [&](size_t i) {
    Result<SessionState> state =
        RebuildSession(std::move(blueprints[i]), std::move(learners[i]));
    if (!state.ok()) {
      statuses[i] = state.status();
      return;
    }
    auto session = std::make_shared<Session>(std::move(state).value());
    Session* s = session.get();
    {
      MutexLock lock(&s->mu);
      PublishRecord(s);
    }
    rebuilt[i] = std::move(session);
  });
  std::map<uint64_t, std::shared_ptr<Session>> sessions;
  for (size_t i = 0; i < n; ++i) {
    RESTUNE_RETURN_IF_ERROR(statuses[i]);  // the server stays as it was
    sessions.emplace(blueprints[i].id, std::move(rebuilt[i]));
  }

  MutexLock write_lock(&ckpt_mu_);
  MutexLock lock(&mu_);
  repository_ = std::move(repository);
  sessions_ = std::move(sessions);
  finished_ = std::move(finished);
  next_session_id_ = next_id;
  repository_text_.clear();
  return Status::OK();
}

Status ResTuneServer::ParseSessions(std::istream* in,
                                    std::vector<SessionBlueprint>* out) {
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "sessions"));
  size_t num_sessions = 0;
  if (!(*in >> num_sessions) || num_sessions > (1u << 20)) {
    return Status::IoError("bad session count in server checkpoint");
  }
  for (size_t i = 0; i < num_sessions; ++i) {
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "session"));
    SessionBlueprint parsed;
    SessionState& blueprint = parsed.state;
    int has_feasible = 0;
    if (!(*in >> parsed.id >> blueprint.knob_dim >> parsed.iteration >>
          blueprint.repository_snapshot >> has_feasible)) {
      return Status::IoError("bad session header in server checkpoint");
    }
    blueprint.has_feasible = has_feasible != 0;
    RESTUNE_RETURN_IF_ERROR(ReadString(in, &blueprint.task_name));
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "meta"));
    RESTUNE_RETURN_IF_ERROR(ReadVector(in, &blueprint.meta_feature));
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "sla"));
    if (!(*in >> blueprint.sla.min_tps >> blueprint.sla.max_lat)) {
      return Status::IoError("bad sla in server checkpoint");
    }
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "default_theta"));
    RESTUNE_RETURN_IF_ERROR(ReadVector(in, &blueprint.default_theta));
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "default_obs"));
    RESTUNE_RETURN_IF_ERROR(
        ReadObservation(in, &blueprint.default_observation));
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "log"));
    size_t num_events = 0;
    if (!(*in >> num_events) || num_events > (1u << 24)) {
      return Status::IoError("bad event count in server checkpoint");
    }
    parsed.log.reserve(num_events);
    for (size_t e = 0; e < num_events; ++e) {
      EventRecord event;
      RESTUNE_RETURN_IF_ERROR(ReadEventRecord(in, &event));
      parsed.log.push_back(std::move(event));
    }
    out->push_back(std::move(parsed));
  }
  return ExpectTag(in, "end");
}

Status ResTuneServer::SaveCheckpointFile(const std::string& path) const {
  MutexLock write_lock(&ckpt_mu_);
  const auto start = std::chrono::steady_clock::now();
  const Status status = WriteFileAtomically(path, [this](std::ostream* out) {
    ckpt_mu_.AssertHeld();  // held by the caller across the write
    return WriteSnapshot(out);
  });
  CheckpointMetrics* metrics = CheckpointMetrics::Get();
  metrics->seconds->Observe(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count());
  if (!status.ok()) metrics->failures->Add();
  return status;
}

Status ResTuneServer::LoadCheckpointFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open server checkpoint '" + path + "'");
  }
  return LoadCheckpoint(&in);
}

std::string ResTuneServer::MetricsText() const {
  size_t active = 0;
  size_t finished = 0;
  size_t tasks = 0;
  {
    // Read the sizes under the server lock, but render the registry text
    // outside it: PrometheusText takes the registry's own mutex, and
    // holding both at once would establish a lock order for no benefit.
    MutexLock lock(&mu_);
    active = sessions_.size();
    finished = finished_.size();
    tasks = repository_.num_tasks();
  }
  auto* registry = obs::MetricsRegistry::Global();
  registry->GetGauge("restune_server_active_sessions")
      ->Set(static_cast<double>(active));
  registry->GetGauge("restune_server_finished_sessions")
      ->Set(static_cast<double>(finished));
  registry->GetGauge("restune_server_repository_tasks")
      ->Set(static_cast<double>(tasks));
  return registry->PrometheusText();
}

}  // namespace restune
