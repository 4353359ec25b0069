#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>  // restune-lint: allow(raw-thread) concurrent tenants
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "service/restune_server.h"

namespace restune {
namespace {

/// Concurrency contract of ResTuneServer: calls on different sessions run
/// in parallel under per-session locks, and auto-checkpoints are assembled
/// from published records without stopping the world. A concurrent run
/// must match a serial server bit for bit.

constexpr size_t kSessions = 16;
constexpr size_t kDrivers = 8;
constexpr int kRounds = 6;

TargetTaskSubmission MakeSubmission(size_t index) {
  TargetTaskSubmission sub;
  sub.task_name = "tenant-" + std::to_string(index);
  sub.meta_feature = {0.1 * static_cast<double>(index % 5), 0.7};
  sub.knob_dim = 3;
  sub.default_theta = {0.5, 0.5, 0.5};
  sub.default_observation.theta = sub.default_theta;
  sub.default_observation.res = 10.0;
  sub.default_observation.tps = 100.0;
  sub.default_observation.lat = 5.0;
  sub.resource = "cpu";
  return sub;
}

/// A deterministic measurement of a recommendation: every fifth iteration
/// crashes, the rest are SLA-feasible with a bowl-shaped resource cost.
EvaluationReport Measure(const KnobRecommendation& rec) {
  EvaluationReport report;
  report.session_id = rec.session_id;
  report.iteration = rec.iteration;
  if (rec.iteration % 5 == 0) {
    report.fault = FaultKind::kCrash;
    return report;
  }
  double res = 6.0;
  for (double x : rec.theta) res += 8.0 * (x - 0.3) * (x - 0.3);
  report.observation.theta = rec.theta;
  report.observation.res = res;
  report.observation.tps = 101.0;
  report.observation.lat = 4.9;
  return report;
}

ServerOptions BaseOptions() {
  ServerOptions options;
  options.advisor.acq_optimizer.num_candidates = 32;
  options.advisor.acq_optimizer.num_refine = 1;
  options.advisor.acq_optimizer.refine_passes = 2;
  // Archived tasks land in finish order, which concurrent finishes do not
  // fix; keep the repository out of the byte-identity comparison.
  options.archive_finished_sessions = false;
  return options;
}

bool BitEq(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// What one session saw: every recommendation in issue order, every
/// unexpected status, and the finish summary.
struct Trace {
  std::vector<KnobRecommendation> recs;
  std::vector<std::string> errors;
  bool finished = false;
  SessionSummary summary;
};

void Check(Trace* trace, const Status& status, const char* what) {
  if (!status.ok()) trace->errors.push_back(what + status.ToString());
}

/// One scripted round of one session. The script depends only on the
/// session and the round, so a session's call sequence is the same however
/// the drivers interleave.
void DriveRound(ResTuneServer* server, uint64_t id, size_t index, int round,
                Trace* trace) {
  if ((index + static_cast<size_t>(round)) % 3 == 0) {
    const auto batch = server->RecommendBatch(id, 3);
    if (!batch.ok()) return Check(trace, batch.status(), "batch: ");
    const auto again = server->RecommendBatch(id, 3);  // idempotent re-ask
    if (!again.ok()) return Check(trace, again.status(), "re-batch: ");
    if (again->size() != batch->size()) trace->errors.push_back("re-batch");
    for (const KnobRecommendation& rec : *batch) {
      if (rec.iteration > static_cast<int>(trace->recs.size())) {
        trace->recs.push_back(rec);
      }
    }
    // Reports arrive newest first, and one of them twice.
    for (auto it = batch->rbegin(); it != batch->rend(); ++it) {
      Check(trace, server->ReportEvaluation(Measure(*it)), "report: ");
    }
    Check(trace, server->ReportEvaluation(Measure(batch->front())),
          "duplicate: ");
    return;
  }
  const auto rec = server->Recommend(id);
  if (!rec.ok()) return Check(trace, rec.status(), "recommend: ");
  const auto retry = server->Recommend(id);  // lost response, re-ask
  if (!retry.ok() || retry->iteration != rec->iteration ||
      !BitEq(retry->theta, rec->theta)) {
    trace->errors.push_back("retry returned a different recommendation");
  }
  trace->recs.push_back(*rec);
  Check(trace, server->ReportEvaluation(Measure(*rec)), "report: ");
}

/// The session's whole script: its rounds, then even sessions finish (twice,
/// the second a client retry) and odd ones keep one or two recommendations
/// in flight, so checkpoints carry both finished and outstanding work.
void FinishScript(ResTuneServer* server, uint64_t id, size_t index,
                  Trace* trace) {
  if (index % 2 == 0) {
    const auto summary = server->FinishSession(id);
    if (!summary.ok()) return Check(trace, summary.status(), "finish: ");
    const auto again = server->FinishSession(id);
    if (!again.ok() || again->iterations != summary->iterations) {
      trace->errors.push_back("finish retry differs");
    }
    trace->finished = true;
    trace->summary = *summary;
    return;
  }
  if (index % 4 == 1) {
    const auto batch = server->RecommendBatch(id, 2);
    if (!batch.ok()) return Check(trace, batch.status(), "hold: ");
    for (const KnobRecommendation& rec : *batch) {
      if (rec.iteration > static_cast<int>(trace->recs.size())) {
        trace->recs.push_back(rec);
      }
    }
    return;
  }
  const auto rec = server->Recommend(id);
  if (!rec.ok()) return Check(trace, rec.status(), "hold: ");
  trace->recs.push_back(*rec);
}

std::vector<uint64_t> StartAll(ResTuneServer* server) {
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kSessions; ++i) {
    const auto id = server->StartSession(MakeSubmission(i));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.ok() ? *id : 0);
  }
  return ids;
}

std::vector<Trace> RunSerial(ResTuneServer* server) {
  const std::vector<uint64_t> ids = StartAll(server);
  std::vector<Trace> traces(kSessions);
  for (size_t i = 0; i < kSessions; ++i) {
    for (int round = 0; round < kRounds; ++round) {
      DriveRound(server, ids[i], i, round, &traces[i]);
    }
    FinishScript(server, ids[i], i, &traces[i]);
  }
  return traces;
}

void ExpectSameTrace(const Trace& serial, const Trace& concurrent,
                     size_t index) {
  SCOPED_TRACE("session " + std::to_string(index));
  EXPECT_TRUE(concurrent.errors.empty()) << concurrent.errors.front();
  ASSERT_EQ(serial.recs.size(), concurrent.recs.size());
  for (size_t r = 0; r < serial.recs.size(); ++r) {
    EXPECT_EQ(serial.recs[r].iteration, concurrent.recs[r].iteration);
    EXPECT_TRUE(BitEq(serial.recs[r].theta, concurrent.recs[r].theta))
        << "recommendation " << r;
  }
  ASSERT_EQ(serial.finished, concurrent.finished);
  if (serial.finished) {
    EXPECT_EQ(serial.summary.iterations, concurrent.summary.iterations);
    EXPECT_TRUE(BitEq({serial.summary.best_feasible_res},
                      {concurrent.summary.best_feasible_res}));
    EXPECT_TRUE(
        BitEq(serial.summary.best_theta, concurrent.summary.best_theta));
  }
}

class ServiceConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Logger::SetThreshold(LogLevel::kError); }
};

TEST_F(ServiceConcurrencyTest, ConcurrentTenantsMatchASerialServerBitForBit) {
  ResTuneServer serial_server(BaseOptions());
  const std::vector<Trace> serial = RunSerial(&serial_server);
  for (const Trace& trace : serial) {
    ASSERT_TRUE(trace.errors.empty()) << trace.errors.front();
  }
  std::stringstream serial_ckpt;
  ASSERT_TRUE(serial_server.SaveCheckpoint(&serial_ckpt).ok());

  ServerOptions options = BaseOptions();
  options.checkpoint_path = testing::TempDir() + "/concurrent_server.ckpt";
  options.checkpoint_period = 1;  // a checkpoint per state change
  std::remove(options.checkpoint_path.c_str());
  ResTuneServer server(options);
  const std::vector<uint64_t> ids = StartAll(&server);

  // Driver d owns sessions d and d + kDrivers and alternates between them
  // round by round. A checker thread meanwhile loads whatever checkpoint
  // has landed into a fresh server, which replays and verifies every log.
  std::vector<Trace> traces(kSessions);
  std::atomic<size_t> drivers_done{0};
  std::atomic<int> loads{0};
  std::vector<std::string> load_errors;
  std::vector<std::thread> threads;  // restune-lint: allow(raw-thread)
  for (size_t d = 0; d < kDrivers; ++d) {
    threads.emplace_back([&, d] {
      const size_t a = d;
      const size_t b = d + kDrivers;
      for (int round = 0; round < kRounds; ++round) {
        DriveRound(&server, ids[a], a, round, &traces[a]);
        DriveRound(&server, ids[b], b, round, &traces[b]);
      }
      FinishScript(&server, ids[a], a, &traces[a]);
      FinishScript(&server, ids[b], b, &traces[b]);
      drivers_done.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    while (drivers_done.load() < kDrivers) {
      std::stringstream landed(ReadFile(options.checkpoint_path));
      if (landed.str().empty()) continue;  // nothing has landed yet
      ResTuneServer fresh(BaseOptions());
      const Status status = fresh.LoadCheckpoint(&landed);
      if (!status.ok()) load_errors.push_back(status.ToString());
      loads.fetch_add(1);
    }
  });
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < kSessions; ++i) {
    ExpectSameTrace(serial[i], traces[i], i);
  }
  EXPECT_TRUE(load_errors.empty()) << load_errors.front();
  EXPECT_GT(loads.load(), 0);

  // At quiescence the snapshot is the serial server's, byte for byte; the
  // last checkpoint to land is that same snapshot (no older one overwrote
  // it); and a server restored from it writes it back unchanged.
  std::stringstream ckpt;
  ASSERT_TRUE(server.SaveCheckpoint(&ckpt).ok());
  EXPECT_EQ(ckpt.str(), serial_ckpt.str());
  EXPECT_EQ(ReadFile(options.checkpoint_path), ckpt.str());
  ResTuneServer restored(BaseOptions());
  ASSERT_TRUE(restored.LoadCheckpoint(&ckpt).ok());
  std::stringstream resaved;
  ASSERT_TRUE(restored.SaveCheckpoint(&resaved).ok());
  EXPECT_EQ(resaved.str(), serial_ckpt.str());
  EXPECT_EQ(restored.active_sessions(), kSessions / 2);
  EXPECT_EQ(restored.finished_sessions(), kSessions / 2);

  // The recommendations still in flight survived the restart: their
  // reports land on the restored server as on the live one.
  for (size_t i = 1; i < kSessions; i += 2) {
    const size_t held = i % 4 == 1 ? 2 : 1;
    for (size_t r = traces[i].recs.size() - held; r < traces[i].recs.size();
         ++r) {
      const EvaluationReport report = Measure(traces[i].recs[r]);
      EXPECT_TRUE(restored.ReportEvaluation(report).ok()) << "session " << i;
      EXPECT_TRUE(server.ReportEvaluation(report).ok()) << "session " << i;
    }
  }
}

TEST_F(ServiceConcurrencyTest, FinishRacingRecommendReturnsOnlyTypedErrors) {
  ServerOptions options = BaseOptions();
  options.archive_finished_sessions = true;
  options.min_observations_to_archive = 2;
  options.checkpoint_path = testing::TempDir() + "/racing_server.ckpt";
  options.checkpoint_period = 1;
  ResTuneServer server(options);
  constexpr size_t kPairs = 16;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kPairs; ++i) {
    const auto id = server.StartSession(MakeSubmission(i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  // Per session, two connections drive the same session until the server
  // refuses — one tunes, the other keeps re-asking for the current
  // recommendation — while a third finishes it underneath them once they
  // are a few iterations in (different sessions race at different points).
  constexpr size_t kTenants = 2;
  std::vector<std::vector<std::string>> untyped(kPairs * (kTenants + 1));
  std::vector<int> max_issued(kPairs * kTenants, 0);
  std::vector<SessionSummary> summaries(kPairs);
  std::vector<std::atomic<int>> progress(kPairs);
  std::vector<std::atomic<size_t>> tenants_done(kPairs);
  std::vector<std::thread> threads;  // restune-lint: allow(raw-thread)
  for (size_t i = 0; i < kPairs; ++i) {
    for (size_t t = 0; t < kTenants; ++t) {
      threads.emplace_back([&, i, t] {
        const size_t slot = i * kTenants + t;
        auto note = [&](const Status& status) {
          if (!status.ok() &&
              status.code() != StatusCode::kFailedPrecondition) {
            untyped[slot].push_back(status.ToString());
          }
          return status.ok();
        };
        const bool reporter = t == 0;
        for (int call = 0; call < (reporter ? 12 : 2000); ++call) {
          const auto rec = server.Recommend(ids[i]);
          if (!note(rec.status())) break;
          max_issued[slot] = std::max(max_issued[slot], rec->iteration);
          if (!reporter) continue;
          if (!note(server.ReportEvaluation(Measure(*rec)))) break;
          progress[i].fetch_add(1);
        }
        tenants_done[i].fetch_add(1);
      });
    }
    threads.emplace_back([&, i] {
      const int target = static_cast<int>(i % 4);
      while (progress[i].load() < target && tenants_done[i].load() < kTenants) {
      }
      const auto summary = server.FinishSession(ids[i]);
      if (summary.ok()) {
        summaries[i] = *summary;
      } else {
        untyped[kPairs * kTenants + i].push_back(summary.status().ToString());
      }
    });
  }
  for (auto& t : threads) t.join();

  for (const std::vector<std::string>& errors : untyped) {
    EXPECT_TRUE(errors.empty()) << errors.front();
  }
  for (size_t i = 0; i < kPairs; ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    // Every iteration a tenant was handed was issued before the finish, so
    // the summary counts exactly up to the last of them.
    int issued = 0;
    for (size_t t = 0; t < kTenants; ++t) {
      issued = std::max(issued, max_issued[i * kTenants + t]);
    }
    EXPECT_EQ(summaries[i].iterations, issued);
    EXPECT_EQ(server.Recommend(ids[i]).status().code(),
              StatusCode::kFailedPrecondition);
    const auto again = server.FinishSession(ids[i]);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->iterations, summaries[i].iterations);
  }
  EXPECT_EQ(server.active_sessions(), 0u);
  EXPECT_EQ(server.finished_sessions(), kPairs);

  std::stringstream ckpt(ReadFile(options.checkpoint_path));
  ResTuneServer restored(BaseOptions());
  ASSERT_TRUE(restored.LoadCheckpoint(&ckpt).ok());
  EXPECT_EQ(restored.finished_sessions(), kPairs);
  EXPECT_EQ(restored.repository_size(), server.repository_size());
}

TEST_F(ServiceConcurrencyTest, FailedCheckpointsAreCountedAndCallsSucceed) {
  auto* registry = obs::MetricsRegistry::Global();
  obs::Counter* failures =
      registry->GetCounter("restune_server_checkpoint_failures_total");
  obs::Histogram* seconds =
      registry->GetHistogram("restune_server_checkpoint_seconds");
  const int64_t failures_before = failures->Value();
  const int64_t saves_before = seconds->Count();

  ServerOptions options = BaseOptions();
  options.checkpoint_path =
      testing::TempDir() + "/no_such_directory/server.ckpt";
  options.checkpoint_period = 1;
  ResTuneServer server(options);
  const auto id = server.StartSession(MakeSubmission(0));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const auto batch = server.RecommendBatch(*id, 2);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (const KnobRecommendation& rec : *batch) {
    ASSERT_TRUE(server.ReportEvaluation(Measure(rec)).ok());
  }
  const auto rec = server.Recommend(*id);
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(server.ReportEvaluation(Measure(*rec)).ok());
  ASSERT_TRUE(server.FinishSession(*id).ok());

  // start, batch, 2 reports, recommend, report, finish: 7 state-changing
  // calls, each of which tried to checkpoint and failed.
  EXPECT_EQ(failures->Value() - failures_before, 7);
  EXPECT_EQ(seconds->Count() - saves_before, 7);
  EXPECT_NE(server.MetricsText().find(
                "restune_server_checkpoint_failures_total"),
            std::string::npos);
}

}  // namespace
}  // namespace restune
