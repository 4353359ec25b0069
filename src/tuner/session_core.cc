#include "tuner/session_core.h"

#include <string>
#include <utility>

#include "common/contracts.h"
#include "obs/metrics.h"

namespace restune {

namespace {

struct LadderMetrics {
  obs::Counter* frozen_probes;
  obs::Counter* advisor_failures;

  static LadderMetrics* Get() {
    static LadderMetrics* m = [] {
      auto* registry = obs::MetricsRegistry::Global();
      // restune-lint: allow(naked-new) -- intentional leak, handle cache
      auto* metrics = new LadderMetrics();
      metrics->frozen_probes =
          registry->GetCounter("restune_event_frozen_probes_total");
      metrics->advisor_failures =
          registry->GetCounter("restune_event_advisor_failures_total");
      return metrics;
    }();
    return m;
  }
};

bool BitwiseEqual(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

void SessionCore::EnableLadder(const SafetyOptions& options,
                               const SlaConstraints& sla, double sla_tolerance,
                               const Vector& safe_theta, double safe_res) {
  // Registers the ladder counters, so scrapes and checkpoint counter
  // snapshots list them from the start, at zero.
  LadderMetrics::Get();
  ladder_.emplace(options);
  ladder_->SetBaseline(safe_theta, safe_res);
  sla_ = sla;
  sla_tolerance_ = sla_tolerance;
}

Result<Vector> SessionCore::Suggest(SessionMode mode) {
  if (ladder_) {
    if (mode == SessionMode::kConstrained) {
      advisor_->SetTrustRegion(ladder_->safe_theta(), ladder_->trust_radius());
    } else {
      advisor_->ClearTrustRegion();
    }
  }
  // Constant-liar batching: the suggestion is penalized near every θ still
  // awaiting its outcome, so concurrent launches diversify. With nothing
  // outstanding this is bitwise the plain SuggestNext.
  std::vector<Vector> pending;
  pending.reserve(outstanding_.size());
  for (const auto& [seq, theta] : outstanding_) pending.push_back(theta);
  return advisor_->SuggestNextAsync(pending);
}

Result<const EventRecord*> SessionCore::Launch() {
  EventRecord launch;
  launch.kind = EventKind::kLaunch;
  launch.mode = mode();
  if (launch.mode == SessionMode::kFrozen) {
    // Frozen probe: deliberately no advisor call, so replay consumes no
    // advisor RNG for it either.
    launch.frozen = true;
    launch.theta = ladder_->safe_theta();
    LadderMetrics::Get()->frozen_probes->Add();
  } else {
    Result<Vector> suggestion = Suggest(launch.mode);
    if (!suggestion.ok()) {
      if (!ladder_ || suggestion.status().code() == StatusCode::kOutOfRange) {
        return suggestion.status();
      }
      // The surrogate failed: drop to frozen and probe the safe config —
      // an always-on loop keeps serving something safe.
      LadderMetrics::Get()->advisor_failures->Add();
      launch.mode = ladder_->OnAdvisorFailure();
      launch.frozen = true;
      launch.theta = ladder_->safe_theta();
      LadderMetrics::Get()->frozen_probes->Add();
    } else {
      launch.theta = std::move(suggestion).value();
      RESTUNE_DCHECK_ALL_FINITE(launch.theta);
    }
  }
  launch.sla_violated = sla_violated();
  launch.seq = next_seq_++;
  outstanding_.emplace(launch.seq, launch.theta);
  log_.push_back(std::move(launch));
  return &log_.back();
}

Status SessionCore::Ingest(const Vector& theta, const EventRecord& completion) {
  if (completion.failed) {
    EvaluationFault fault;
    fault.kind = completion.fault;
    fault.elapsed_seconds = completion.elapsed_seconds;
    fault.message = completion.watchdog_killed
                        ? "watchdog cancelled pending slot"
                        : "evaluation failed";
    RESTUNE_RETURN_IF_ERROR(advisor_->ObserveFailure(theta, fault));
  } else {
    RESTUNE_RETURN_IF_ERROR(advisor_->Observe(completion.observation));
  }
  if (ladder_) {
    // Two-tolerance rule: the strict verdict gates safe-config updates, the
    // lenient one feeds the violation monitor (exploration on the
    // constraint boundary routinely dips a few percent infeasible).
    const bool failed = completion.failed;
    const Observation& obs = completion.observation;
    const bool feasible = !failed && sla_.IsFeasible(obs, sla_tolerance_);
    const bool sla_ok =
        !failed &&
        sla_.IsFeasible(obs, ladder_->options().monitor_tolerance);
    ladder_->OnCompletion(theta, failed, feasible, sla_ok, obs.res);
  }
  return Status::OK();
}

Result<Vector> SessionCore::Complete(EventRecord completion) {
  const auto it = outstanding_.find(completion.seq);
  if (it == outstanding_.end()) {
    return Status::FailedPrecondition("no outstanding launch " +
                                      std::to_string(completion.seq));
  }
  completion.kind = EventKind::kComplete;
  RESTUNE_RETURN_IF_ERROR(Ingest(it->second, completion));
  completion.mode_after = mode();
  completion.sla_violated_after = sla_violated();
  log_.push_back(std::move(completion));
  ++completions_;
  Vector theta = std::move(it->second);
  outstanding_.erase(it);
  return theta;
}

Status SessionCore::Replay(std::vector<EventRecord> log,
                           const CompletionFn& on_complete) {
  for (const EventRecord& record : log) {
    if (record.kind == EventKind::kLaunch) {
      if (record.seq != next_seq_) {
        return Status::FailedPrecondition(
            "checkpoint launch " + std::to_string(record.seq) +
            " out of sequence: expected " +
            std::to_string(next_seq_));
      }
      // A launch frozen while the replayed ladder is not: the original
      // launch hit an advisor failure, which logs no completion. Mirror it.
      if (ladder_ && record.frozen && record.mode == SessionMode::kFrozen &&
          ladder_->mode() != SessionMode::kFrozen) {
        ladder_->OnAdvisorFailure();
      }
      if (record.mode != mode() || record.sla_violated != sla_violated()) {
        return Status::FailedPrecondition(
            "checkpoint replay diverged at launch " +
            std::to_string(record.seq) +
            ": recorded mode '" + SessionModeName(record.mode) +
            "', replayed '" + SessionModeName(mode()) + "'");
      }
      Vector theta;
      if (record.frozen) {
        if (!ladder_) {
          return Status::FailedPrecondition(
              "checkpoint launch " + std::to_string(record.seq) +
              " is a frozen probe, but the session has no safety ladder");
        }
        theta = ladder_->safe_theta();
      } else {
        RESTUNE_ASSIGN_OR_RETURN(theta, Suggest(record.mode));
      }
      // Checkpoint doubles round-trip exactly, so any mismatch means the
      // advisor was rebuilt with different seeds or options; continuing
      // would silently fork the run.
      if (!BitwiseEqual(theta, record.theta)) {
        return Status::FailedPrecondition(
            "checkpoint replay diverged at launch " +
            std::to_string(record.seq) +
            "; the advisor was not reconstructed with the original seeds "
            "and options");
      }
      outstanding_.emplace(next_seq_++, std::move(theta));
      continue;
    }
    const auto it = outstanding_.find(record.seq);
    if (it == outstanding_.end()) {
      return Status::FailedPrecondition("checkpoint completion " +
                                        std::to_string(record.seq) +
                                        " has no matching launch");
    }
    RESTUNE_RETURN_IF_ERROR(Ingest(it->second, record));
    if (record.mode_after != mode() ||
        record.sla_violated_after != sla_violated()) {
      return Status::FailedPrecondition(
          "checkpoint replay diverged at completion " +
          std::to_string(record.seq) +
          ": recorded mode_after '" + SessionModeName(record.mode_after) +
          "', replayed '" + SessionModeName(mode()) + "'");
    }
    ++completions_;
    RESTUNE_RETURN_IF_ERROR(on_complete(record, it->second));
    outstanding_.erase(it);
  }
  log_ = std::move(log);
  return Status::OK();
}

}  // namespace restune
