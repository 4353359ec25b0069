#include "tuner/session.h"

#include <cmath>
#include <fstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace restune {

namespace {

struct SessionMetrics {
  obs::Counter* iterations;
  obs::Counter* checkpoints;
  obs::Counter* resumes;

  static SessionMetrics* Get() {
    static SessionMetrics* m = [] {
      auto* registry = obs::MetricsRegistry::Global();
      // restune-lint: allow(naked-new) -- intentional leak, handle cache
      auto* metrics = new SessionMetrics();
      metrics->iterations =
          registry->GetCounter("restune_session_iterations_total");
      metrics->checkpoints =
          registry->GetCounter("restune_session_checkpoints_total");
      metrics->resumes = registry->GetCounter("restune_session_resumes_total");
      return metrics;
    }();
    return m;
  }
};

/// Rolling loop state shared by the live loop and checkpoint replay, so
/// both apply identical convergence/safeguard bookkeeping.
struct LoopState {
  int stable_iterations = 0;
  int consecutive_infeasible = 0;
  Observation last_obs;
};

/// A synchronous session has one launch in flight, so its log must be the
/// pairs launch k, completion k for k = 0..n-1 with nothing pending. A
/// permuted or gap-ridden log (hand-edited checkpoint, another driver's
/// file) would otherwise replay "successfully" while recording bogus
/// iteration numbers in the history.
Status CheckSyncLog(const SessionCheckpoint& checkpoint) {
  const std::vector<EventRecord>& records = checkpoint.records;
  const uint64_t n = static_cast<uint64_t>(checkpoint.completed);
  if (checkpoint.completed < 0 || checkpoint.launched != n ||
      records.size() != 2 * n || !checkpoint.in_flight.empty()) {
    return Status::FailedPrecondition(
        "checkpoint is not a synchronous session: " +
        std::to_string(checkpoint.launched) + " launches, " +
        std::to_string(checkpoint.completed) + " completions, " +
        std::to_string(records.size()) + " records, " +
        std::to_string(checkpoint.in_flight.size()) + " pending");
  }
  for (size_t i = 0; i < records.size(); ++i) {
    const EventKind kind = i % 2 == 0 ? EventKind::kLaunch
                                      : EventKind::kComplete;
    if (records[i].kind != kind || records[i].seq != i / 2) {
      return Status::FailedPrecondition(
          "checkpoint event log is not a contiguous run prefix: record " +
          std::to_string(i) + " is " +
          (records[i].kind == EventKind::kLaunch ? "launch " : "completion ") +
          std::to_string(records[i].seq));
    }
  }
  return Status::OK();
}

}  // namespace

int SessionResult::IterationsToBest(double rel_tol) const {
  const double threshold = best_feasible_res * (1.0 + rel_tol);
  for (const IterationRecord& rec : history) {
    if (rec.best_feasible_res <= threshold) return rec.iteration;
  }
  return history.empty() ? 0 : history.back().iteration;
}

Status SessionResult::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << "iteration,res,tps,lat,feasible,best_feasible_res,failed,fault,"
         "attempts\n";
  out << "0," << default_observation.res << "," << default_observation.tps
      << "," << default_observation.lat << ",1," << default_observation.res
      << ",0,none,1\n";
  for (const IterationRecord& rec : history) {
    out << rec.iteration << "," << rec.observation.res << ","
        << rec.observation.tps << "," << rec.observation.lat << ","
        << (rec.feasible ? 1 : 0) << "," << rec.best_feasible_res << ","
        << (rec.failed ? 1 : 0) << "," << FaultKindName(rec.fault) << ","
        << rec.attempts << "\n";
  }
  return out.good() ? Status::OK()
                    : Status::IoError("write to '" + path + "' failed");
}

TuningSession::TuningSession(DbInstanceSimulator* simulator, Advisor* advisor,
                             SessionOptions options)
    : simulator_(simulator), advisor_(advisor), options_(options) {}

Result<SessionResult> TuningSession::Run() { return RunInternal(nullptr); }

Result<SessionResult> TuningSession::Resume() {
  if (options_.fault.checkpoint_path.empty()) {
    return Status::FailedPrecondition(
        "Resume requires fault.checkpoint_path to be set");
  }
  RESTUNE_ASSIGN_OR_RETURN(
      const SessionCheckpoint checkpoint,
      LoadSessionCheckpointFile(options_.fault.checkpoint_path));
  return RunInternal(&checkpoint);
}

Status TuningSession::WriteCheckpoint(const SessionResult& result,
                                      const SessionCore& core,
                                      const EvaluationSupervisor& supervisor) {
  SessionCheckpoint checkpoint;
  checkpoint.launched = core.launches();
  checkpoint.completed = core.completions();
  checkpoint.default_observation = result.default_observation;
  checkpoint.sla = result.sla;
  checkpoint.records = core.log();
  checkpoint.simulator_state = simulator_->ExportState();
  checkpoint.supervisor_rng = supervisor.rng_state();
  // Count this write before snapshotting so the stored totals include it.
  SessionMetrics::Get()->checkpoints->Add();
  checkpoint.metrics = obs::MetricsRegistry::Global()->Counters();
  return SaveSessionCheckpointFile(checkpoint,
                                   options_.fault.checkpoint_path);
}

Result<SessionResult> TuningSession::RunInternal(
    const SessionCheckpoint* resume_from) {
  EvaluationSupervisor supervisor(simulator_, options_.fault.retry,
                                  options_.fault.supervisor_seed);
  SessionCore core(advisor_, /*first_seq=*/0);
  SessionResult result;
  LoopState state;

  // Applies one completed iteration (measured or failed) to the result and
  // loop state. Returns 0 to continue, 1 on convergence, 2 when the
  // infeasibility safeguard trips. Used verbatim by replay, which is what
  // makes a resumed run's bookkeeping identical to the uninterrupted one.
  auto apply_iteration = [&](const EventRecord& completion,
                             const Vector& theta) -> int {
    IterationRecord rec;
    rec.iteration = core.completions();
    rec.failed = completion.failed;
    rec.fault = completion.fault;
    rec.attempts = completion.attempts;
    rec.backoff_seconds = completion.backoff_seconds;
    rec.timing = advisor_->last_timing();
    rec.replay_seconds = simulator_->options().replay_seconds;
    if (completion.failed) {
      // No metrics to record; the suggested θ is kept for the trace. A
      // failed evaluation cannot be feasible and interrupts any stability
      // streak (the loop observed nothing comparable this iteration).
      rec.observation.theta = theta;
      rec.feasible = false;
      ++result.failed_iterations;
      state.stable_iterations = 0;
    } else {
      rec.observation = completion.observation;
      rec.feasible = result.sla.IsFeasible(rec.observation,
                                           options_.sla_tolerance);
      if (rec.feasible && rec.observation.res < result.best_feasible_res) {
        result.best_feasible_res = rec.observation.res;
        result.best_theta = rec.observation.theta;
        result.best_iteration = rec.iteration;
      }
    }
    rec.best_feasible_res = result.best_feasible_res;
    result.total_retries += completion.attempts - 1;
    result.history.push_back(rec);

    if (!completion.failed) {
      // Convergence rule: all three metrics stable for a whole window.
      auto rel_change = [](double now, double before) {
        return std::fabs(now - before) / std::max(std::fabs(before), 1e-9);
      };
      const Observation& obs = rec.observation;
      const bool stable = rel_change(obs.res, state.last_obs.res) <
                              options_.convergence_delta &&
                          rel_change(obs.tps, state.last_obs.tps) <
                              options_.convergence_delta &&
                          rel_change(obs.lat, state.last_obs.lat) <
                              options_.convergence_delta;
      state.stable_iterations = stable ? state.stable_iterations + 1 : 0;
      state.last_obs = obs;
      if (options_.stop_on_convergence &&
          state.stable_iterations >= options_.convergence_window) {
        result.converged = true;
        return 1;
      }
    }
    state.consecutive_infeasible =
        rec.feasible ? 0 : state.consecutive_infeasible + 1;
    if (options_.max_consecutive_infeasible > 0 &&
        state.consecutive_infeasible >= options_.max_consecutive_infeasible) {
      result.aborted_by_safeguard = true;
      return 2;
    }
    return 0;
  };

  if (resume_from == nullptr) {
    // The default-configuration evaluation anchors the SLA; it must not die
    // to a random injected fault, so the supervisor retries every kind here.
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
    RESTUNE_RETURN_IF_ERROR(CheckSyncLog(*resume_from));
    result.resumed = true;
    SessionMetrics::Get()->resumes->Add();
    result.default_observation = resume_from->default_observation;
    result.sla = resume_from->sla;
  }
  result.best_feasible_res = result.default_observation.res;
  result.best_theta = result.default_observation.theta;
  result.best_iteration = 0;
  state.last_obs = result.default_observation;
  RESTUNE_RETURN_IF_ERROR(
      advisor_->Begin(result.default_observation, result.sla));

  if (resume_from != nullptr) {
    // Resume: rebuild the advisor by replaying the event log through it.
    // Evaluations are NOT re-run — the metrics come from the log and the
    // simulator/supervisor RNG streams are restored afterwards, so the
    // continuation consumes exactly the draws the interrupted run would
    // have.
    bool stopped = false;
    RESTUNE_RETURN_IF_ERROR(core.Replay(
        resume_from->records,
        [&](const EventRecord& completion, const Vector& theta) -> Status {
          stopped = apply_iteration(completion, theta) != 0;
          if (stopped && core.completions() < resume_from->completed) {
            return Status::FailedPrecondition(
                "checkpoint event log continues past a session stop "
                "condition");
          }
          return Status::OK();
        }));
    simulator_->RestoreState(resume_from->simulator_state);
    supervisor.set_rng_state(resume_from->supervisor_rng);
    // Replay re-ran the advisor's model work and inflated the live counters;
    // rewind them to the checkpointed totals so a resumed session reports
    // the same numbers as the uninterrupted run. Checkpoints without a
    // metrics section leave the counters untouched.
    if (!resume_from->metrics.empty()) {
      obs::MetricsRegistry::Global()->RestoreCounters(resume_from->metrics);
    }
    if (stopped) return result;
  }

  for (int iter = core.completions() + 1; iter <= options_.max_iterations;
       ++iter) {
    RESTUNE_TRACE_SPAN("session.iteration");
    SessionMetrics::Get()->iterations->Add();
    Result<const EventRecord*> launch = [&]() {
      RESTUNE_TRACE_SPAN("session.suggest");
      return core.Launch();
    }();
    if (!launch.ok()) {
      if (launch.status().code() == StatusCode::kOutOfRange) break;
      return launch.status();
    }
    EventRecord completion;
    completion.seq = (*launch)->seq;
    RESTUNE_ASSIGN_OR_RETURN(const SupervisedEvaluation supervised,
                             supervisor.Evaluate((*launch)->theta));
    completion.attempts = supervised.attempts;
    completion.backoff_seconds = supervised.backoff_seconds;
    completion.elapsed_seconds = supervised.elapsed_seconds;
    if (supervised.outcome.ok()) {
      completion.observation = supervised.outcome.observation();
    } else {
      completion.failed = true;
      completion.fault = supervised.outcome.fault().kind;
    }
    RESTUNE_ASSIGN_OR_RETURN(const Vector theta,
                             core.Complete(std::move(completion)));

    const int stop = apply_iteration(core.log().back(), theta);
    if (!options_.fault.checkpoint_path.empty() &&
        options_.fault.checkpoint_period > 0 &&
        (stop != 0 || iter % options_.fault.checkpoint_period == 0)) {
      RESTUNE_RETURN_IF_ERROR(WriteCheckpoint(result, core, supervisor));
    }
    if (stop != 0) break;
  }
  if (!options_.fault.checkpoint_path.empty() && !core.log().empty()) {
    RESTUNE_RETURN_IF_ERROR(WriteCheckpoint(result, core, supervisor));
  }
  return result;
}

}  // namespace restune
