#ifndef RESTUNE_TUNER_SESSION_CORE_H_
#define RESTUNE_TUNER_SESSION_CORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/result.h"
#include "gp/observation.h"
#include "tuner/advisor.h"
#include "tuner/checkpoint.h"
#include "tuner/safety.h"

namespace restune {

/// The tuning loop of paper Section 4 — suggest θ, evaluate it, feed the
/// result back — written once. Every driver (`TuningSession`,
/// `EventTuningSession`, `ResTuneServer`) owns one core per session and
/// adds only its transport: how θ reaches an evaluator and how outcomes
/// come back.
///
/// The core keeps the outstanding launches (seq → θ, in seq order) and the
/// totally ordered launch/completion log, which is the durable form of the
/// session. `Launch` and `Complete` append to the log; `Replay` feeds a
/// checkpointed log through a freshly constructed advisor and ladder with
/// the same two calls, so a resumed session continues bit for bit.
///
/// Optionally the core drives the degraded-mode ladder (tuner/safety.h):
/// frozen sessions probe the last known-safe config without an advisor
/// call, constrained sessions clamp suggestions into the trust region
/// around it, and an advisor error other than exhaustion freezes the
/// ladder instead of failing the launch.
class SessionCore {
 public:
  /// Called by `Replay` for each completion once the advisor and ladder
  /// have ingested it; `theta` is what its launch posted.
  using CompletionFn =
      std::function<Status(const EventRecord& completion, const Vector& theta)>;

  /// An unbound core; assign a bound one before use.
  SessionCore() = default;
  /// `advisor` must outlive the core and have seen `Begin`. Launch seqs
  /// count up from `first_seq`.
  SessionCore(Advisor* advisor, uint64_t first_seq)
      : advisor_(advisor), first_seq_(first_seq), next_seq_(first_seq) {}

  /// Installs the degraded-mode ladder with (`safe_theta`, `safe_res`) as
  /// the initial safe config. A completion is strictly feasible within
  /// `sla_tolerance` of `sla`, which gates safe-config updates; the SLA
  /// monitor counts only misses beyond `options.monitor_tolerance`.
  void EnableLadder(const SafetyOptions& options, const SlaConstraints& sla,
                    double sla_tolerance, const Vector& safe_theta,
                    double safe_res);

  /// Issues the next launch: a suggestion penalized near every outstanding
  /// θ, or with the ladder the frozen probe or a trust-region-clamped
  /// suggestion. Returns the appended launch record, valid until the next
  /// call that changes the core. kOutOfRange (advisor exhausted) passes
  /// through; nothing is logged on error.
  Result<const EventRecord*> Launch();

  /// Ingests the outcome of outstanding launch `completion.seq`. The caller
  /// fills the outcome fields; the core feeds the advisor (`Observe`, or
  /// `ObserveFailure` of the launched θ), steps the ladder, records the
  /// ladder state in the completion and appends it. Returns the launched θ.
  /// On error the core is unchanged.
  Result<Vector> Complete(EventRecord completion);

  /// Rebuilds the advisor and ladder from a checkpointed `log` on a fresh
  /// core. Launch seqs must run consecutively from the first seq; every
  /// replayed θ must match its record bit for bit and every recorded mode
  /// the replayed ladder. Divergence is kFailedPrecondition.
  Status Replay(std::vector<EventRecord> log, const CompletionFn& on_complete);

  /// Launched θs without a completion yet, in seq order.
  const std::map<uint64_t, Vector>& outstanding() const { return outstanding_; }
  const std::vector<EventRecord>& log() const { return log_; }
  uint64_t next_seq() const { return next_seq_; }
  uint64_t launches() const { return next_seq_ - first_seq_; }
  int completions() const { return completions_; }
  /// Null without a ladder.
  const SafetyController* ladder() const {
    return ladder_ ? &*ladder_ : nullptr;
  }
  /// The ladder's mode; always healthy without a ladder.
  SessionMode mode() const {
    return ladder_ ? ladder_->mode() : SessionMode::kHealthy;
  }
  bool sla_violated() const { return ladder_ && ladder_->sla_violated(); }

 private:
  /// The advisor call of a non-frozen launch in `mode`.
  Result<Vector> Suggest(SessionMode mode);
  /// Feeds one outcome of the launch that posted `theta` to the advisor
  /// and the ladder.
  Status Ingest(const Vector& theta, const EventRecord& completion);

  Advisor* advisor_ = nullptr;
  std::optional<SafetyController> ladder_;
  SlaConstraints sla_;
  double sla_tolerance_ = 0.0;
  uint64_t first_seq_ = 0;
  uint64_t next_seq_ = 0;
  int completions_ = 0;
  std::map<uint64_t, Vector> outstanding_;
  std::vector<EventRecord> log_;
};

}  // namespace restune

#endif  // RESTUNE_TUNER_SESSION_CORE_H_
