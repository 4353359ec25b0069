#include "tuner/event_session.h"

#include <algorithm>
#include <map>
#include <string>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace restune {

namespace {

struct EventSessionMetrics {
  obs::Counter* launches;
  obs::Counter* completions;
  obs::Counter* watchdog_kills;
  obs::Counter* checkpoints;
  obs::Counter* resumes;
  obs::Gauge* in_flight;

  static EventSessionMetrics* Get() {
    static EventSessionMetrics* m = [] {
      auto* registry = obs::MetricsRegistry::Global();
      // restune-lint: allow(naked-new) -- intentional leak, handle cache
      auto* metrics = new EventSessionMetrics();
      metrics->launches =
          registry->GetCounter("restune_event_launches_total");
      metrics->completions =
          registry->GetCounter("restune_event_completions_total");
      metrics->watchdog_kills =
          registry->GetCounter("restune_event_watchdog_kills_total");
      metrics->checkpoints =
          registry->GetCounter("restune_event_checkpoints_total");
      metrics->resumes = registry->GetCounter("restune_event_resumes_total");
      metrics->in_flight = registry->GetGauge("restune_event_in_flight");
      return metrics;
    }();
    return m;
  }
};

std::string JsonVector(const Vector& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += StringPrintf("%.17g", v[i]);
  }
  out += ']';
  return out;
}

/// Delivery order of the pending heap: earliest delivery first, ties by seq.
bool DeliveredLater(const InFlightRecord& a, const InFlightRecord& b) {
  if (a.delivery_seconds != b.delivery_seconds) {
    return a.delivery_seconds > b.delivery_seconds;
  }
  return a.seq > b.seq;
}

/// Emits a `{"type":"event",...}` line into the trace (no-op when tracing
/// is disabled). `body` is the comma-joined tail of the JSON object.
void TraceEvent(const std::string& body) {
  obs::Tracer* tracer = obs::Tracer::Global();
  if (!tracer->enabled()) return;
  tracer->RecordLine("{\"type\":\"event\"," + body + "}");
}

}  // namespace

EventTuningSession::EventTuningSession(DbInstanceSimulator* simulator,
                                       Advisor* advisor,
                                       EventSessionOptions options)
    : simulator_(simulator), advisor_(advisor), options_(options) {}

Result<SessionResult> EventTuningSession::Run() { return RunInternal(nullptr); }

Result<SessionResult> EventTuningSession::Resume() {
  if (options_.fault.checkpoint_path.empty()) {
    return Status::FailedPrecondition(
        "Resume requires fault.checkpoint_path to be set");
  }
  RESTUNE_ASSIGN_OR_RETURN(
      const SessionCheckpoint checkpoint,
      LoadSessionCheckpointFile(options_.fault.checkpoint_path));
  return RunInternal(&checkpoint);
}

double EventTuningSession::WatchdogDeadline() const {
  return options_.watchdog_deadline_seconds > 0.0
             ? options_.watchdog_deadline_seconds
             : options_.watchdog_multiplier *
                   simulator_->options().replay_seconds;
}

void EventTuningSession::PushPending(InFlightRecord eval) {
  pending_.push_back(std::move(eval));
  std::push_heap(pending_.begin(), pending_.end(), DeliveredLater);
  EventSessionMetrics::Get()->in_flight->Set(
      static_cast<double>(pending_.size()));
}

InFlightRecord EventTuningSession::PopPending() {
  std::pop_heap(pending_.begin(), pending_.end(), DeliveredLater);
  InFlightRecord eval = std::move(pending_.back());
  pending_.pop_back();
  EventSessionMetrics::Get()->in_flight->Set(
      static_cast<double>(pending_.size()));
  return eval;
}

Result<bool> EventTuningSession::Launch(EvaluationSupervisor* supervisor) {
  RESTUNE_TRACE_SPAN("session.launch");
  Result<const EventRecord*> launched = core_.Launch();
  if (!launched.ok()) {
    if (launched.status().code() == StatusCode::kOutOfRange) {
      return false;  // advisor exhausted (grid search ran out)
    }
    return launched.status();
  }
  const EventRecord& launch = **launched;
  EventSessionMetrics::Get()->launches->Add();
  {
    std::string body = StringPrintf(
        "\"event\":\"launch\",\"seq\":%llu,\"mode\":\"%s\","
        "\"sla_violated\":%d,\"frozen\":%d",
        static_cast<unsigned long long>(launch.seq),
        SessionModeName(launch.mode), launch.sla_violated ? 1 : 0,
        launch.frozen ? 1 : 0);
    body += ",\"theta\":" + JsonVector(launch.theta);
    if (launch.mode != SessionMode::kHealthy) {
      body += ",\"trust_center\":" + JsonVector(safety().safe_theta());
      body += StringPrintf(",\"trust_radius\":%.17g", safety().trust_radius());
    }
    TraceEvent(body);
  }

  // Eager evaluation: the outcome is computed at launch (RNG consumed in
  // launch order — thread-count invariant) but delivered later, when the
  // session clock reaches delivery_seconds.
  RESTUNE_ASSIGN_OR_RETURN(const SupervisedEvaluation supervised,
                           supervisor->Evaluate(launch.theta));
  InFlightRecord pend;
  pend.seq = launch.seq;
  pend.attempts = supervised.attempts;
  pend.backoff_seconds = supervised.backoff_seconds;
  pend.elapsed_seconds = supervised.elapsed_seconds;
  if (supervised.outcome.ok()) {
    pend.observation = supervised.outcome.observation();
  } else {
    pend.failed = true;
    pend.fault = supervised.outcome.fault().kind;
  }
  // Watchdog: a slot still pending at its deadline is cancelled. Stalls
  // never complete on their own, so they are always cut at the deadline;
  // anything else that outlived it is reclassified as a timeout — even a
  // "successful" result, which by then nobody is waiting for.
  const double deadline = WatchdogDeadline();
  if (pend.fault == FaultKind::kStall || pend.elapsed_seconds > deadline) {
    pend.watchdog_killed = true;
    pend.failed = true;
    if (pend.fault != FaultKind::kStall) pend.fault = FaultKind::kTimeout;
    pend.elapsed_seconds = deadline;
    EventSessionMetrics::Get()->watchdog_kills->Add();
  }
  pend.delivery_seconds = clock_seconds_ + pend.elapsed_seconds;
  PushPending(std::move(pend));
  return true;
}

void EventTuningSession::ApplyCompletion(SessionResult* result,
                                         const EventRecord& completion,
                                         const Vector& theta) {
  IterationRecord rec;
  rec.iteration = core_.completions();
  rec.failed = completion.failed;
  rec.fault = completion.fault;
  rec.attempts = completion.attempts;
  rec.backoff_seconds = completion.backoff_seconds;
  rec.timing = advisor_->last_timing();
  rec.replay_seconds = simulator_->options().replay_seconds;
  if (completion.failed) {
    rec.observation.theta = theta;
    rec.feasible = false;
    ++result->failed_iterations;
  } else {
    rec.observation = completion.observation;
    rec.feasible =
        result->sla.IsFeasible(rec.observation, options_.sla_tolerance);
    if (rec.feasible && rec.observation.res < result->best_feasible_res) {
      result->best_feasible_res = rec.observation.res;
      result->best_theta = rec.observation.theta;
      result->best_iteration = rec.iteration;
    }
  }
  rec.best_feasible_res = result->best_feasible_res;
  result->total_retries += completion.attempts - 1;
  result->history.push_back(rec);
}

Status EventTuningSession::Ingest(SessionResult* result) {
  RESTUNE_TRACE_SPAN("session.ingest");
  InFlightRecord eval = PopPending();
  clock_seconds_ = std::max(clock_seconds_, eval.delivery_seconds);
  EventSessionMetrics::Get()->completions->Add();

  EventRecord completion;
  completion.seq = eval.seq;
  completion.failed = eval.failed;
  if (!eval.failed) completion.observation = std::move(eval.observation);
  completion.fault = eval.fault;
  completion.attempts = eval.attempts;
  completion.backoff_seconds = eval.backoff_seconds;
  completion.elapsed_seconds = eval.elapsed_seconds;
  completion.watchdog_killed = eval.watchdog_killed;
  const SessionMode before = core_.mode();
  RESTUNE_ASSIGN_OR_RETURN(const Vector theta,
                           core_.Complete(std::move(completion)));
  const EventRecord& complete = core_.log().back();
  ApplyCompletion(result, complete, theta);

  const SessionMode after = complete.mode_after;
  TraceEvent(StringPrintf(
      "\"event\":\"complete\",\"seq\":%llu,\"iteration\":%d,\"failed\":%d,"
      "\"fault\":\"%s\",\"watchdog_killed\":%d,\"feasible\":%d,"
      "\"mode_after\":\"%s\",\"sla_violated_after\":%d",
      static_cast<unsigned long long>(complete.seq), core_.completions(),
      complete.failed ? 1 : 0, FaultKindName(complete.fault),
      complete.watchdog_killed ? 1 : 0,
      result->history.back().feasible ? 1 : 0, SessionModeName(after),
      complete.sla_violated_after ? 1 : 0));
  if (after != before) {
    TraceEvent(StringPrintf(
        "\"event\":\"mode_transition\",\"from\":\"%s\",\"to\":\"%s\","
        "\"seq\":%llu",
        SessionModeName(before), SessionModeName(after),
        static_cast<unsigned long long>(complete.seq)));
  }
  return Status::OK();
}

Status EventTuningSession::WriteCheckpoint(
    const SessionResult& result, const EvaluationSupervisor& supervisor) {
  SessionCheckpoint checkpoint;
  checkpoint.launched = core_.launches();
  checkpoint.completed = core_.completions();
  checkpoint.clock_seconds = clock_seconds_;
  checkpoint.default_observation = result.default_observation;
  checkpoint.sla = result.sla;
  checkpoint.records = core_.log();
  // Pending evaluations in seq order (the heap's layout is an
  // implementation detail that must not leak into checkpoint bytes).
  checkpoint.in_flight = pending_;
  std::sort(checkpoint.in_flight.begin(), checkpoint.in_flight.end(),
            [](const InFlightRecord& a, const InFlightRecord& b) {
              return a.seq < b.seq;
            });
  checkpoint.simulator_state = simulator_->ExportState();
  checkpoint.supervisor_rng = supervisor.rng_state();
  // Count this write before snapshotting so the stored totals include it.
  EventSessionMetrics::Get()->checkpoints->Add();
  checkpoint.metrics = obs::MetricsRegistry::Global()->Counters();
  TraceEvent(StringPrintf("\"event\":\"checkpoint\",\"completed\":%d",
                          core_.completions()));
  return SaveSessionCheckpointFile(checkpoint, options_.fault.checkpoint_path);
}

Result<SessionResult> EventTuningSession::RunInternal(
    const SessionCheckpoint* resume_from) {
  EvaluationSupervisor supervisor(simulator_, options_.fault.retry,
                                  options_.fault.supervisor_seed);
  SessionResult result;
  pending_.clear();
  clock_seconds_ = 0.0;
  advisor_exhausted_ = false;
  halted_ = false;

  if (resume_from == nullptr) {
    // The default-configuration evaluation anchors the SLA and the safety
    // baseline; it must not die to a random injected fault.
    RESTUNE_ASSIGN_OR_RETURN(
        const SupervisedEvaluation bootstrap,
        supervisor.Evaluate(simulator_->knob_space().DefaultTheta(),
                            /*retry_any_fault=*/true));
    if (!bootstrap.outcome.ok()) {
      return Status::Aborted(
          "default configuration evaluation failed (" +
          std::string(FaultKindName(bootstrap.outcome.fault().kind)) +
          "): " + bootstrap.outcome.fault().message);
    }
    result.default_observation = bootstrap.outcome.observation();
    result.sla = DbInstanceSimulator::ConstraintsFromDefault(
        result.default_observation);
  } else {
    result.resumed = true;
    EventSessionMetrics::Get()->resumes->Add();
    result.default_observation = resume_from->default_observation;
    result.sla = resume_from->sla;
  }
  result.best_feasible_res = result.default_observation.res;
  result.best_theta = result.default_observation.theta;
  result.best_iteration = 0;
  core_ = SessionCore(advisor_, /*first_seq=*/0);
  core_.EnableLadder(options_.safety, result.sla, options_.sla_tolerance,
                     result.default_observation.theta,
                     result.default_observation.res);
  RESTUNE_RETURN_IF_ERROR(
      advisor_->Begin(result.default_observation, result.sla));

  if (resume_from != nullptr) {
    // Resume: rebuild advisor AND safety ladder by replaying the totally
    // ordered event log, then re-materialize the pending queue: outcomes
    // from the checkpoint, θ from the unmatched launches.
    RESTUNE_RETURN_IF_ERROR(core_.Replay(
        resume_from->records,
        [&](const EventRecord& completion, const Vector& theta) -> Status {
          ApplyCompletion(&result, completion, theta);
          return Status::OK();
        }));
    if (core_.launches() != resume_from->launched ||
        core_.completions() != resume_from->completed) {
      return Status::FailedPrecondition(
          "checkpoint header counts " + std::to_string(resume_from->launched) +
          " launches and " + std::to_string(resume_from->completed) +
          " completions, its event log " + std::to_string(core_.launches()) +
          " and " + std::to_string(core_.completions()));
    }
    // The pending records, in seq order, must be exactly the unmatched
    // launches.
    const std::map<uint64_t, Vector>& outstanding = core_.outstanding();
    if (outstanding.size() != resume_from->in_flight.size()) {
      return Status::FailedPrecondition(
          "checkpoint in-flight records do not match unmatched launches");
    }
    auto launch = outstanding.begin();
    for (const InFlightRecord& record : resume_from->in_flight) {
      if (record.seq != launch->first) {
        return Status::FailedPrecondition(
            "checkpoint in-flight record " + std::to_string(record.seq) +
            " does not match unmatched launch " +
            std::to_string(launch->first));
      }
      ++launch;
      PushPending(record);
    }
    clock_seconds_ = resume_from->clock_seconds;
    simulator_->RestoreState(resume_from->simulator_state);
    supervisor.set_rng_state(resume_from->supervisor_rng);
    // Replay inflated the live counters; rewind to the checkpointed totals
    // so a resumed session reports the same numbers as the uninterrupted
    // one.
    if (!resume_from->metrics.empty()) {
      obs::MetricsRegistry::Global()->RestoreCounters(resume_from->metrics);
    }
  }

  // The halt hook only applies to completions ingested by THIS process —
  // a resumed run past the halt point ignores it.
  int halt_at = options_.halt_after_completions;
  if (resume_from != nullptr && halt_at > 0 && halt_at <= core_.completions()) {
    halt_at = 0;
  }

  while (core_.completions() < options_.max_iterations) {
    RESTUNE_TRACE_SPAN("session.iteration");
    while (!advisor_exhausted_ &&
           pending_.size() < static_cast<size_t>(std::max(
                                 1, options_.max_in_flight)) &&
           core_.launches() < static_cast<uint64_t>(options_.max_iterations)) {
      RESTUNE_ASSIGN_OR_RETURN(const bool launched, Launch(&supervisor));
      if (!launched) {
        advisor_exhausted_ = true;
        break;
      }
    }
    if (pending_.empty()) break;  // advisor exhausted and queue drained
    RESTUNE_RETURN_IF_ERROR(Ingest(&result));

    const int completed = core_.completions();
    const bool halt = halt_at > 0 && completed >= halt_at;
    if (!options_.fault.checkpoint_path.empty() &&
        options_.fault.checkpoint_period > 0 &&
        (halt || completed % options_.fault.checkpoint_period == 0)) {
      RESTUNE_RETURN_IF_ERROR(WriteCheckpoint(result, supervisor));
    }
    if (halt) {
      halted_ = true;
      return result;
    }
  }
  if (!options_.fault.checkpoint_path.empty() && !core_.log().empty()) {
    RESTUNE_RETURN_IF_ERROR(WriteCheckpoint(result, supervisor));
  }
  return result;
}

}  // namespace restune
