// In-process replay of the recorded sessions. Every session's calls are
// issued again, in the recorded order, against a fresh ResTuneServer, and
// every answer must equal what the wire returned bit for bit. The replay
// calls run on the shared pool's threads like the wire handlers do, so a
// replayed call takes the path a served call takes, minus sockets and
// queueing: its time is the "solo" service time.

#include <atomic>

#include "bench.h"
#include "common/thread_pool.h"
#include "gp/multi_output_gp.h"
#include "tuner/restune_advisor.h"

namespace tunebench {
namespace {

using restune::KnobRecommendation;
using restune::ResTuneServer;

bool SameRecs(const std::vector<KnobRecommendation>& a,
              const std::vector<KnobRecommendation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].iteration != b[i].iteration || !SameTheta(a[i].theta, b[i].theta)) {
      return false;
    }
  }
  return true;
}

std::map<std::string, double> CounterValues(const ResTuneServer& server) {
  return ParseMetrics(server.MetricsText());
}

/// Per-worker output, merged after the parallel loop.
struct WorkerOut {
  std::vector<std::string> failures;
  std::vector<double> call_ms, overhead_ms;
  double solo_ms = 0.0, rtt_ms = 0.0;
  std::vector<double> suggest_ms, observe_ms, observe_failure_ms;
};

/// Replays one session's calls on `server`.
void ReplaySession(ResTuneServer* server, const SessionLog& log,
                   WorkerOut* out) {
  const std::string who = "session " + std::to_string(log.index);
  uint64_t id = 0;
  for (const Op& op : log.ops) {
    if (!op.ok) break;  // the wire run already failed here
    const Clock::time_point t0 = Clock::now();
    bool match = true;
    std::string what;
    switch (op.kind) {
      case OpKind::kStart: {
        ScopedSpan span("replay.start_session", 0, 0);
        auto r = server->StartSession(log.submission);
        match = r.ok();
        if (r.ok()) id = *r;
        what = "StartSession";
        break;
      }
      case OpKind::kRecommend: {
        ScopedSpan span("replay.recommend", log.session_id,
                        op.recs.empty() ? 0 : op.recs[0].iteration);
        auto r = server->Recommend(id);
        match = r.ok() && SameRecs({*r}, op.recs);
        what = "Recommend";
        break;
      }
      case OpKind::kBatch: {
        ScopedSpan span("replay.recommend_batch", log.session_id,
                        op.recs.empty() ? 0 : op.recs.back().iteration);
        auto r = server->RecommendBatch(id, op.width);
        match = r.ok() && SameRecs(*r, op.recs);
        what = "RecommendBatch";
        break;
      }
      case OpKind::kReport: {
        ScopedSpan span("replay.report", log.session_id, op.report.iteration);
        restune::EvaluationReport report = op.report;
        report.session_id = id;
        match = server->ReportEvaluation(report).ok();
        what = "ReportEvaluation";
        break;
      }
      case OpKind::kFinish: {
        ScopedSpan span("replay.finish_session", log.session_id, 0);
        auto r = server->FinishSession(id);
        match = r.ok() && r->iterations == op.summary.iterations &&
                r->best_feasible_res == op.summary.best_feasible_res &&
                SameTheta(r->best_theta, op.summary.best_theta);
        what = "FinishSession";
        break;
      }
    }
    const double ms = MsBetween(t0, Clock::now());
    if (!match) {
      out->failures.push_back(who + ": replayed " + what +
                              " differs from the wire answer");
      return;
    }
    if (!op.after_restart) {
      out->call_ms.push_back(ms);
      out->overhead_ms.push_back(op.rtt_ms - ms);
      out->solo_ms += ms;
      out->rtt_ms += op.rtt_ms;
    }
  }
}

/// Replays one session straight through ResTuneAdvisor, the way the server
/// drives it: a new recommendation is a SuggestNextAsync penalized by the
/// still-outstanding ones, a report is Observe or ObserveFailure.
void ReplayAdvisor(const RunInputs& in, const SessionLog& log,
                   WorkerOut* out) {
  const std::string who = "session " + std::to_string(log.index);
  const size_t dim = log.submission.knob_dim;
  std::vector<restune::BaseLearner> learners =
      in.repository.TrainBaseLearners([dim](const restune::TuningTask& t) {
        return !t.observations.empty() && t.observations[0].theta.size() == dim;
      });
  restune::ResTuneAdvisor advisor(dim, log.submission.default_theta,
                                  std::move(learners),
                                  log.submission.meta_feature,
                                  BenchServerOptions("").advisor);
  const restune::Observation& def = log.submission.default_observation;
  if (!advisor.Begin(def, restune::SlaConstraints{def.tps, def.lat}).ok()) {
    out->failures.push_back(who + ": advisor Begin failed");
    return;
  }
  std::map<int, restune::Vector> outstanding;
  int issued = 0;
  for (const Op& op : log.ops) {
    if (!op.ok) break;
    if (op.kind == OpKind::kRecommend || op.kind == OpKind::kBatch) {
      for (const KnobRecommendation& rec : op.recs) {
        if (rec.iteration <= issued) continue;  // already outstanding
        std::vector<restune::Vector> pending;
        for (const auto& [it, theta] : outstanding) pending.push_back(theta);
        const Clock::time_point t0 = Clock::now();
        restune::Result<restune::Vector> theta = [&] {
          ScopedSpan span("replay.advisor.suggest", log.session_id,
                          rec.iteration);
          return advisor.SuggestNextAsync(pending);
        }();
        out->suggest_ms.push_back(MsBetween(t0, Clock::now()));
        if (!theta.ok() || !SameTheta(*theta, rec.theta)) {
          out->failures.push_back(who + ": advisor replay diverged at " +
                                  std::to_string(rec.iteration));
          return;
        }
        outstanding.emplace(rec.iteration, *theta);
        issued = rec.iteration;
      }
    } else if (op.kind == OpKind::kReport) {
      const auto it = outstanding.find(op.report.iteration);
      if (it == outstanding.end()) continue;  // duplicate report
      const Clock::time_point t0 = Clock::now();
      restune::Status status;
      const bool failed = op.report.fault != restune::FaultKind::kNone;
      {
        ScopedSpan span("replay.advisor.observe", log.session_id,
                        op.report.iteration);
        if (failed) {
          restune::EvaluationFault fault;
          fault.kind = op.report.fault;
          status = advisor.ObserveFailure(it->second, fault);
        } else {
          status = advisor.Observe(op.report.observation);
        }
      }
      (failed ? out->observe_failure_ms : out->observe_ms)
          .push_back(MsBetween(t0, Clock::now()));
      if (!status.ok()) {
        out->failures.push_back(who + ": advisor observe failed");
        return;
      }
      outstanding.erase(it);
    }
  }
}

/// Runs `fn(worker, log)` over `logs` on the shared pool, one server per
/// worker.
template <typename Fn>
void ForEachSession(const std::vector<const SessionLog*>& logs, size_t workers,
                    Fn fn) {
  std::atomic<size_t> next{0};
  restune::ThreadPool::Shared()->ParallelFor(workers, [&](size_t w) {
    for (size_t i = next.fetch_add(1); i < logs.size(); i = next.fetch_add(1)) {
      fn(w, *logs[i]);
    }
  });
}

}  // namespace

ReplayResult Replay(const RunInputs& in, const WireRun& run, bool layers,
                    const std::string& work_dir) {
  ReplayResult result;
  const size_t workers = restune::ThreadPool::Shared()->num_threads();
  std::vector<std::unique_ptr<ResTuneServer>> servers;
  for (size_t w = 0; w < workers; ++w) {
    // Durability on, as on the wire, so a solo call includes checkpointing.
    servers.push_back(std::make_unique<ResTuneServer>(BenchServerOptions(
        work_dir + "/replay-" + std::to_string(w) + ".ckpt")));
    for (const restune::TuningTask& task : in.repository.tasks()) {
      (void)servers.back()->AddHistoricalTask(task);
    }
  }
  std::vector<WorkerOut> outs(workers);
  std::vector<const SessionLog*> core, rest;
  for (const SessionLog& log : run.logs) (log.core ? core : rest).push_back(&log);

  // The core set first, alone, so that the counter deltas around it cover
  // deterministic work only and repeat exactly for a seed.
  const std::map<std::string, double> before = CounterValues(*servers[0]);
  ForEachSession(core, workers, [&](size_t w, const SessionLog& log) {
    ReplaySession(servers[w].get(), log, &outs[w]);
  });
  const std::map<std::string, double> after = CounterValues(*servers[0]);
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    result.core_counters[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  ForEachSession(rest, workers, [&](size_t w, const SessionLog& log) {
    ReplaySession(servers[w].get(), log, &outs[w]);
  });

  if (layers) {
    std::vector<const SessionLog*> all;
    for (const SessionLog& log : run.logs) all.push_back(&log);
    ForEachSession(all, workers, [&](size_t w, const SessionLog& log) {
      ReplayAdvisor(in, log, &outs[w]);
    });
    // MultiOutputGp::Fit on the longest recorded history.
    const SessionLog* longest = nullptr;
    size_t most = 0;
    for (const SessionLog& log : run.logs) {
      if (log.ops.size() > most) {
        most = log.ops.size();
        longest = &log;
      }
    }
    if (longest != nullptr) {
      std::vector<restune::Observation> history{
          longest->submission.default_observation};
      for (const Op& op : longest->ops) {
        if (op.kind == OpKind::kReport && !op.repeat &&
            op.report.fault == restune::FaultKind::kNone) {
          history.push_back(op.report.observation);
        }
      }
      std::vector<double> fit_ms;
      for (int rep = 0; rep < 3; ++rep) {
        restune::MultiOutputGp gp(longest->submission.knob_dim);
        const Clock::time_point t0 = Clock::now();
        ScopedSpan span("replay.gp.fit_probe", longest->session_id, 0);
        if (!gp.Fit(history).ok()) {
          result.failures.push_back("MultiOutputGp::Fit probe failed");
          break;
        }
        fit_ms.push_back(MsBetween(t0, Clock::now()));
      }
      result.fit_probe_ms = Median(fit_ms);
    }
  }

  for (WorkerOut& out : outs) {
    auto append = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    result.failures.insert(result.failures.end(), out.failures.begin(),
                           out.failures.end());
    append(&result.call_ms, out.call_ms);
    append(&result.overhead_ms, out.overhead_ms);
    append(&result.suggest_ms, out.suggest_ms);
    append(&result.observe_ms, out.observe_ms);
    append(&result.observe_failure_ms, out.observe_failure_ms);
    result.solo_total_ms += out.solo_ms;
    result.rtt_total_ms += out.rtt_ms;
  }
  return result;
}

}  // namespace tunebench
