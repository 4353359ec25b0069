#include "service/restune_client.h"

#include "tuner/supervisor.h"

namespace restune {

ResTuneClient::ResTuneClient(DbInstanceSimulator* simulator,
                             const WorkloadCharacterizer* characterizer)
    : simulator_(simulator), characterizer_(characterizer) {}

Result<TargetTaskSubmission> ResTuneClient::PrepareSubmission(
    size_t trace_queries, uint64_t seed) {
  TargetTaskSubmission submission;
  submission.task_name = simulator_->workload().name + "@" +
                         simulator_->hardware().name;
  submission.knob_dim = simulator_->knob_space().dim();
  submission.default_theta = simulator_->knob_space().DefaultTheta();
  submission.resource = ResourceKindName(simulator_->options().resource);

  // Meta-data processing: characterize a sampled window of the workload.
  if (characterizer_ != nullptr && characterizer_->trained()) {
    Rng rng(seed);
    WorkloadSqlGenerator generator(simulator_->workload());
    RESTUNE_ASSIGN_OR_RETURN(
        submission.meta_feature,
        characterizer_->MetaFeature(generator.Sample(trace_queries, &rng)));
  }

  // Default-configuration replay fixes the SLA.
  RESTUNE_ASSIGN_OR_RETURN(submission.default_observation,
                           simulator_->EvaluateDefault());
  return submission;
}

Result<EvaluationReport> ResTuneClient::EvaluateRecommendation(
    const KnobRecommendation& recommendation) {
  EvaluationReport report;
  report.session_id = recommendation.session_id;
  report.iteration = recommendation.iteration;
  const Result<EvaluationOutcome> outcome =
      simulator_->TryEvaluate(recommendation.theta);
  if (!outcome.ok()) return outcome.status();
  // A replay that "succeeds" with garbage metrics is reported as a
  // corrupted-metrics fault, never shipped to the server as data.
  report.fault = EvaluationSupervisor::ClassifyOutcome(outcome);
  if (report.fault == FaultKind::kNone) {
    report.observation = outcome->observation();
  }
  return report;
}

}  // namespace restune
