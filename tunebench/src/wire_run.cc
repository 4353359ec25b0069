// The timed wire phase: tenants drive one WireServer over loopback TCP,
// closed loop (deep-cpu14, cold-batch-faults) or open loop (fleet-churn).
// The run ends with a restart from the final checkpoint and a drain of the
// sessions that were held open across it.

#include <poll.h>
#include <sys/inotify.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "common/rng.h"
#include "meta/base_learner_cache.h"
#include "obs/trace.h"
#include "service/tuning_client.h"
#include "service/wire_server.h"
#include "tuner/supervisor.h"

namespace tunebench {
namespace {

using restune::EvaluationReport;
using restune::KnobRecommendation;
using restune::ResTuneServer;
using restune::TuningClient;
using restune::WireServer;

/// Plan indices of the sessions held open for the restart of a closed
/// loop, apart from the timed sessions.
constexpr size_t kHoldIndexBase = size_t{1} << 20;

/// The client-side replay of one recommendation, classified the way a
/// correct client would: a fault is reported as its kind, and a replay that
/// "succeeded" with garbage metrics is reported as corrupted metrics rather
/// than forwarded for the server to reject.
EvaluationReport Evaluate(restune::DbInstanceSimulator* sim,
                          const KnobRecommendation& rec, Tally* tally) {
  EvaluationReport report;
  report.session_id = rec.session_id;
  report.iteration = rec.iteration;
  const Clock::time_point t0 = Clock::now();
  const restune::Result<restune::EvaluationOutcome> outcome = [&] {
    ScopedSpan span("dbsim.eval", rec.session_id, rec.iteration);
    return sim->TryEvaluate(rec.theta);
  }();
  tally->eval_ms.push_back(MsBetween(t0, Clock::now()));
  if (!outcome.ok()) {
    report.fault = restune::FaultKind::kCrash;
  } else if (!outcome->ok()) {
    report.fault = outcome->fault().kind;
  } else if (restune::EvaluationSupervisor::IsCorrupted(
                 outcome->observation())) {
    report.fault = restune::FaultKind::kCorruptedMetrics;
  } else {
    report.observation = outcome->observation();
  }
  return report;
}

/// One tenant connection with call timing, spans, and failure tallies.
class Tenant {
 public:
  Tenant(TuningClient* client, Tally* tally) : client_(client), tally_(tally) {}

  bool Fail(const std::string& what, const restune::Status& status) {
    ++tally_->failed;
    tally_->errors.push_back(what + ": " + status.ToString());
    return false;
  }

  bool Start(SessionLog* log, double* ms, Clock::time_point from) {
    ++tally_->attempted;
    Op op;
    op.kind = OpKind::kStart;
    const Clock::time_point sent = Clock::now();
    const restune::Result<uint64_t> id = [&] {
      ScopedSpan span("client.start_session", 0, 0);
      return client_->StartSession(log->submission);
    }();
    const Clock::time_point done = Clock::now();
    op.rtt_ms = MsBetween(sent, done);
    *ms = MsBetween(from, done);
    op.ok = id.ok();
    log->ops.push_back(op);
    if (!id.ok()) return Fail("StartSession", id.status());
    log->session_id = *id;
    return true;
  }

  /// RecommendBatch(width) when `batch`, else Recommend; the answer goes to
  /// `recs`.
  bool Ask(SessionLog* log, int width, bool batch, bool repeat,
           Clock::time_point from, std::vector<KnobRecommendation>* recs,
           double* ms) {
    ++tally_->attempted;
    Op op;
    op.width = width;
    op.repeat = repeat;
    const Clock::time_point sent = Clock::now();
    bool ok = true;
    restune::Status status;
    {
      ScopedSpan span(batch ? "client.recommend_batch" : "client.recommend",
                      log->session_id, NextIteration(*log));
      if (batch) {
        op.kind = OpKind::kBatch;
        auto batch = client_->RecommendBatch(log->session_id, width);
        ok = batch.ok();
        if (ok) op.recs = std::move(batch).value();
        else status = batch.status();
      } else {
        op.kind = OpKind::kRecommend;
        auto rec = client_->Recommend(log->session_id);
        ok = rec.ok();
        if (ok) op.recs.push_back(std::move(rec).value());
        else status = rec.status();
      }
    }
    const Clock::time_point done = Clock::now();
    op.rtt_ms = MsBetween(sent, done);
    if (ms != nullptr) *ms = MsBetween(from, done);
    op.ok = ok;
    if (ok) *recs = op.recs;
    log->ops.push_back(std::move(op));
    if (!ok) return Fail("Recommend", status);
    return true;
  }

  bool Report(SessionLog* log, const EvaluationReport& report, bool repeat,
              double* ms) {
    ++tally_->attempted;
    Op op;
    op.kind = OpKind::kReport;
    op.repeat = repeat;
    op.report = report;
    const Clock::time_point sent = Clock::now();
    restune::Status status;
    {
      ScopedSpan span("client.report", log->session_id, report.iteration);
      status = client_->ReportEvaluation(report);
    }
    op.rtt_ms = MsBetween(sent, Clock::now());
    if (ms != nullptr) *ms = op.rtt_ms;
    op.ok = status.ok();
    log->ops.push_back(op);
    if (!status.ok()) return Fail("ReportEvaluation", status);
    if (!repeat) ++log->acked;
    return true;
  }

  bool Finish(SessionLog* log, std::vector<std::string>* checks) {
    ++tally_->attempted;
    Op op;
    op.kind = OpKind::kFinish;
    const Clock::time_point sent = Clock::now();
    const restune::Result<restune::SessionSummary> summary = [&] {
      ScopedSpan span("client.finish_session", log->session_id, 0);
      return client_->FinishSession(log->session_id);
    }();
    op.rtt_ms = MsBetween(sent, Clock::now());
    op.ok = summary.ok();
    if (summary.ok()) op.summary = *summary;
    log->ops.push_back(op);
    if (!summary.ok()) return Fail("FinishSession", summary.status());
    log->finished = true;
    if (summary->iterations != log->acked) {
      checks->push_back("session " + std::to_string(log->index) + ": " +
                        std::to_string(log->acked) +
                        " acknowledged iterations, FinishSession counts " +
                        std::to_string(summary->iterations));
    }
    return true;
  }

  bool Scrape() {
    ++tally_->attempted;
    ScopedSpan span("client.metrics", 0, 0);
    auto text = client_->MetricsText();
    if (!text.ok()) return Fail("MetricsText", text.status());
    return true;
  }

 private:
  static int NextIteration(const SessionLog& log) {
    int issued = 0;
    for (const Op& op : log.ops) {
      for (const KnobRecommendation& rec : op.recs) {
        issued = std::max(issued, rec.iteration);
      }
    }
    return issued + 1;
  }

  TuningClient* client_;
  Tally* tally_;
};

struct ThreadResult {
  Tally tally;
  std::vector<SessionLog> logs;
  std::vector<Held> held;  // `log` indexes into `logs` of this thread
  std::vector<std::string> checks;
  Clock::time_point end;
};

/// Closed loop: the tenant runs one full session.
///
/// Tenants move in lockstep rounds: all of them ask, then all of them
/// report. Each round's requests still queue on the server's one mutex, but
/// always behind the same kind of request. Left free-running, the tenants'
/// phases drift against each other and the median latency moved 30-40%
/// from run to run with where they settled.
void ClosedTenant(const RunInputs& in, int tenant, TuningClient* client,
                  std::barrier<>* round, ThreadResult* out) {
  const WorkloadSpec& spec = *in.spec;
  Tenant t(client, &out->tally);
  const SessionPlan plan = MakePlan(in, static_cast<size_t>(tenant));
  SessionLog log;
  log.index = plan.index;
  log.core = true;
  log.submission = plan.submission;
  log.default_res = plan.submission.default_observation.res;
  double ms = 0.0;
  bool ok = t.Start(&log, &ms, Clock::now());
  if (ok) {
    out->tally.start_ms.push_back(ms);
    round->arrive_and_wait();
  }
  // A batch of up to `batch_width` recommendations is evaluated, then its
  // reports go back in shuffled order, as from a fleet of replay workers.
  restune::Rng shuffle(plan.shuffle_seed);
  while (ok && log.acked < plan.iterations) {
    const int width = std::min(spec.batch_width, plan.iterations - log.acked);
    std::vector<KnobRecommendation> recs;
    ok = t.Ask(&log, width, spec.batch_width > 1, false, Clock::now(), &recs,
               &ms);
    if (!ok) break;
    out->tally.recommend_ms.push_back(ms);
    std::vector<EvaluationReport> reports;
    for (const KnobRecommendation& rec : recs) {
      reports.push_back(Evaluate(plan.sim.get(), rec, &out->tally));
    }
    round->arrive_and_wait();
    std::vector<size_t> order(reports.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(order[i - 1], order[shuffle.UniformInt(i)]);
    }
    for (size_t i : order) {
      ok = t.Report(&log, reports[i], false, &ms);
      if (!ok) break;
      out->tally.report_ms.push_back(ms);
      ++out->tally.iterations;
    }
    if (ok && log.acked < plan.iterations) round->arrive_and_wait();
  }
  round->arrive_and_drop();
  out->end = Clock::now();
  if (ok) t.Finish(&log, &out->checks);
  out->logs.push_back(std::move(log));
}

/// After a closed loop's window, each tenant opens one more session, runs
/// `hold_iterations` iterations, and keeps its next recommendation
/// evaluated but unreported: the in-progress state the restart recovers.
/// Short sessions keep one restart cheap enough to repeat.
void HoldSession(const RunInputs& in, int tenant, TuningClient* client,
                 ThreadResult* out) {
  Tenant t(client, &out->tally);
  const SessionPlan plan =
      MakePlan(in, kHoldIndexBase + static_cast<size_t>(tenant));
  SessionLog log;
  log.index = plan.index;
  log.submission = plan.submission;
  double ms = 0.0;
  bool ok = t.Start(&log, &ms, Clock::now());
  for (int i = 0; ok && i <= in.spec->hold_iterations; ++i) {
    std::vector<KnobRecommendation> recs;
    ok = t.Ask(&log, 1, false, false, Clock::now(), &recs, &ms);
    if (!ok) break;
    const EvaluationReport report = Evaluate(plan.sim.get(), recs[0],
                                             &out->tally);
    if (i == in.spec->hold_iterations) {
      out->held.push_back(Held{out->logs.size(), recs[0], report});
      break;
    }
    ok = t.Report(&log, report, false, &ms);
  }
  out->logs.push_back(std::move(log));
}

/// Open loop: steps (one Recommend + replay + ReportEvaluation) are due at
/// a fixed aggregate rate over `slots` session slots. Connection `c` owns
/// the steps j with j % connections == c and sends each at its due time or
/// as soon as its previous step returns; latency counts from the due time.
void OpenConnection(const RunInputs& in, int conn, TuningClient* client,
                    Clock::time_point t0, size_t total_steps,
                    ThreadResult* out) {
  const WorkloadSpec& spec = *in.spec;
  const size_t slots = static_cast<size_t>(spec.slots);
  const size_t conns = static_cast<size_t>(spec.tenants);
  Tenant t(client, &out->tally);
  struct Slot {
    std::optional<SessionPlan> plan;
    size_t log = 0;
  };
  std::vector<Slot> mine(slots);
  size_t steps_done = 0;
  for (size_t j = static_cast<size_t>(conn); j < total_steps; j += conns) {
    // Steps fall due in bursts of `burst` every burst / step_rate seconds:
    // a burst queues on the server, so latencies measure service work and
    // waiting rather than the wake-up time of idle threads.
    const size_t burst = static_cast<size_t>(spec.burst);
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(
                     static_cast<double>(j / burst * burst) / spec.step_rate));
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const Clock::time_point start = Clock::now();
    out->tally.late_ms.push_back(MsBetween(due, start));
    const size_t s = j % slots;
    const size_t k = j / slots;
    const size_t round = k % static_cast<size_t>(spec.rounds);
    Slot& slot = mine[s];
    restune::Rng step_rng(in.seed * 0x9E3779B97F4A7C15ull + j);
    Clock::time_point ask_from = due;
    double ms = 0.0;
    if (round == 0) {
      slot.plan = MakePlan(in, (k / static_cast<size_t>(spec.rounds)) * slots + s);
      SessionLog log;
      log.index = slot.plan->index;
      log.submission = slot.plan->submission;
      log.default_res = slot.plan->submission.default_observation.res;
      slot.log = out->logs.size();
      out->logs.push_back(std::move(log));
      if (!t.Start(&out->logs[slot.log], &ms, due)) return;
      out->tally.start_ms.push_back(ms);
      ask_from = Clock::now();
    }
    SessionLog& log = out->logs[slot.log];
    std::vector<KnobRecommendation> recs;
    if (!t.Ask(&log, 1, false, false, ask_from, &recs, &ms)) return;
    out->tally.recommend_ms.push_back(ms);
    if (step_rng.Uniform() < spec.retry_prob) {
      // A client that lost the response re-asks: the same θ must come back.
      std::vector<KnobRecommendation> again;
      const Clock::time_point sent = Clock::now();
      if (!t.Ask(&log, 1, false, true, sent, &again, &ms)) return;
      out->tally.recommend_ms.push_back(ms);
      if (again.size() != 1 || again[0].iteration != recs[0].iteration ||
          !SameTheta(again[0].theta, recs[0].theta)) {
        out->checks.push_back("session " + std::to_string(log.index) +
                              ": retried Recommend returned a different θ");
      }
    }
    const EvaluationReport report =
        Evaluate(slot.plan->sim.get(), recs[0], &out->tally);
    if (!t.Report(&log, report, false, &ms)) return;
    out->tally.report_ms.push_back(ms);
    ++out->tally.iterations;
    if (step_rng.Uniform() < spec.duplicate_prob) {
      if (!t.Report(&log, report, true, &ms)) return;
      out->tally.report_ms.push_back(ms);
    }
    if (round + 1 == static_cast<size_t>(spec.rounds)) {
      if (!t.Finish(&log, &out->checks)) return;
      log.core = true;  // finished inside the schedule: deterministic
      slot.plan.reset();
    }
    ++steps_done;
    if (spec.scrape_every > 0 &&
        steps_done % static_cast<size_t>(spec.scrape_every) == 0) {
      if (!t.Scrape()) return;
    }
  }
  out->end = Clock::now();
  // Sessions still in progress when the schedule ends get one more
  // recommendation, which is held open across the restart.
  for (Slot& slot : mine) {
    if (!slot.plan) continue;
    SessionLog& log = out->logs[slot.log];
    std::vector<KnobRecommendation> recs;
    if (!t.Ask(&log, 1, false, false, Clock::now(), &recs, nullptr)) return;
    out->held.push_back(
        Held{slot.log, recs[0], Evaluate(slot.plan->sim.get(), recs[0],
                                         &out->tally)});
  }
}

/// Counts and times the server's automatic checkpoints from outside: each
/// save writes `<path>.tmp` and renames it over `<path>`, so an inotify
/// watch on the directory sees the open of the temp file and the rename.
class CheckpointWatcher {
 public:
  CheckpointWatcher(const std::string& dir, const std::string& name)
      : dir_(dir), name_(name), tmp_(name + ".tmp") {
    fd_ = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (fd_ >= 0) {
      inotify_add_watch(fd_, dir.c_str(), IN_OPEN | IN_MOVED_TO);
      thread_ = std::thread([this] { Loop(); });
    }
  }
  ~CheckpointWatcher() { Stop(); }
  CheckpointWatcher(const CheckpointWatcher&) = delete;
  CheckpointWatcher& operator=(const CheckpointWatcher&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }
  int64_t count() const { return count_; }
  double bytes() const { return bytes_; }

 private:
  void Loop() {
    alignas(inotify_event) char buf[4096];
    int64_t open_us = -1;
    while (!stop_.load()) {
      pollfd pfd{fd_, POLLIN, 0};
      if (poll(&pfd, 1, 20) <= 0) continue;
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n <= 0) continue;
      const int64_t now = SpanLog::Global()->NowUs();
      for (ssize_t off = 0; off < n;) {
        const auto* ev = reinterpret_cast<const inotify_event*>(buf + off);
        const std::string name = ev->len > 0 ? ev->name : "";
        if ((ev->mask & IN_OPEN) && name == tmp_) open_us = now;
        if ((ev->mask & IN_MOVED_TO) && name == name_) {
          ++count_;
          struct stat st{};
          if (stat((dir_ + "/" + name_).c_str(), &st) == 0) {
            bytes_ += static_cast<double>(st.st_size);
          }
          if (open_us >= 0) {
            Span span;
            span.name = "service.checkpoint";
            span.start_us = open_us;
            span.end_us = now;
            span.tid = -1;
            SpanLog::Global()->Add(std::move(span));
          }
          open_us = -1;
        }
        off += static_cast<ssize_t>(sizeof(inotify_event) + ev->len);
      }
    }
  }

  std::string dir_, name_, tmp_;
  int fd_ = -1;
  std::atomic<bool> stop_{false};
  int64_t count_ = 0;
  double bytes_ = 0.0;
  std::thread thread_;
};

std::vector<TuningClient> Connect(const WireServer& wire, int n,
                                  std::vector<std::string>* failures) {
  std::vector<TuningClient> clients;
  for (int i = 0; i < n; ++i) {
    auto client = TuningClient::Connect("127.0.0.1", wire.port());
    if (!client.ok()) {
      failures->push_back("connect: " + client.status().ToString());
      break;
    }
    clients.push_back(std::move(client).value());
  }
  return clients;
}

std::map<std::string, double> Scrape(TuningClient* client) {
  auto text = client->MetricsText();
  return text.ok() ? ParseMetrics(*text) : std::map<std::string, double>{};
}

}  // namespace

SetupTiming TimeSetup(const RunInputs& inputs, const std::string& work_dir) {
  // Every repetition starts from an empty base-learner cache, as a freshly
  // started process would.
  restune::BaseLearnerCache::Global()->Clear();
  SetupTiming timing;
  const Clock::time_point t0 = Clock::now();
  ResTuneServer server(BenchServerOptions(work_dir + "/setup.ckpt"));
  for (const restune::TuningTask& task : inputs.repository.tasks()) {
    if (!server.AddHistoricalTask(task).ok()) break;
  }
  const Clock::time_point t1 = Clock::now();
  if (inputs.repository.num_tasks() > 0) {
    inputs.repository.TrainBaseLearners(
        [](const restune::TuningTask&) { return true; });
  }
  const Clock::time_point t2 = Clock::now();
  WireServer wire(&server);
  std::vector<std::string> failures;
  if (wire.Start().ok()) {
    std::vector<TuningClient> clients =
        Connect(wire, inputs.spec->tenants, &failures);
    // The first answered request: the service is up.
    if (!clients.empty()) Scrape(&clients[0]);
  }
  timing.total_s = MsBetween(t0, Clock::now()) / 1000.0;
  timing.train_ms = MsBetween(t1, t2);
  wire.Stop();
  return timing;
}

RestartTiming TimeRestarts(const RunInputs& in, const WireRun& run, int reps,
                           const std::string& work_dir,
                           std::vector<std::string>* failures) {
  RestartTiming timing;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point r0 = Clock::now();
    ResTuneServer server(BenchServerOptions(work_dir + "/restart.ckpt"));
    const restune::Status loaded = server.LoadCheckpointFile(run.final_ckpt);
    timing.load_ms.push_back(MsBetween(r0, Clock::now()));
    if (!loaded.ok()) {
      failures->push_back("restart: " + loaded.ToString());
      break;
    }
    WireServer wire(&server);
    if (!wire.Start().ok()) {
      failures->push_back("restart: wire server failed to start");
      break;
    }
    std::vector<TuningClient> clients = Connect(wire, in.spec->tenants, failures);
    if (clients.empty()) break;
    for (const Held& h : run.held) {
      const SessionLog& log = run.logs[h.log];
      const auto rec = clients[0].Recommend(log.session_id);
      if (!rec.ok() || rec->iteration != h.rec.iteration ||
          !SameTheta(rec->theta, h.rec.theta)) {
        failures->push_back(
            "session " + std::to_string(log.index) +
            ": outstanding recommendation changed across the restart");
      }
    }
    timing.recover_s.push_back(MsBetween(r0, Clock::now()) / 1000.0);
  }
  return timing;
}

WireRun RunWire(const RunInputs& in, double seconds, bool trace,
                const std::string& work_dir) {
  const WorkloadSpec& spec = *in.spec;
  WireRun run;
  const std::string ckpt_name = "server.ckpt";
  const std::string ckpt = work_dir + "/" + ckpt_name;
  std::remove(ckpt.c_str());

  auto server = std::make_unique<ResTuneServer>(BenchServerOptions(ckpt));
  for (const restune::TuningTask& task : in.repository.tasks()) {
    if (!server->AddHistoricalTask(task).ok()) {
      run.check_failures.push_back("repository ingestion failed");
      return run;
    }
  }
  auto wire = std::make_unique<WireServer>(server.get());
  if (!wire->Start().ok()) {
    run.check_failures.push_back("wire server failed to start");
    return run;
  }
  std::vector<TuningClient> clients =
      Connect(*wire, spec.tenants, &run.check_failures);
  if (clients.size() != static_cast<size_t>(spec.tenants)) return run;
  run.counters_before = Scrape(&clients[0]);

  std::unique_ptr<CheckpointWatcher> watcher;
  if (trace) {
    SpanLog::Global()->Enable(true);
    restune::obs::Tracer::Global()->Start(work_dir + "/program_trace.jsonl");
    watcher = std::make_unique<CheckpointWatcher>(work_dir, ckpt_name);
  }

  std::vector<ThreadResult> results(static_cast<size_t>(spec.tenants));
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    std::barrier<> round(spec.tenants);
    for (int i = 0; i < spec.tenants; ++i) {
      ThreadResult* out = &results[static_cast<size_t>(i)];
      out->end = t0;
      TuningClient* client = &clients[static_cast<size_t>(i)];
      if (spec.loop == LoopKind::kClosed) {
        threads.emplace_back(
            [&in, i, client, &round, out] {
              ClosedTenant(in, i, client, &round, out);
            });
      } else {
        // Whole sessions fill about `seconds`; then every slot runs
        // `hold_iterations` rounds of one more session, which the schedule
        // leaves unfinished for the restart, whatever `seconds` is.
        const size_t slots = static_cast<size_t>(spec.slots);
        const size_t rounds = static_cast<size_t>(spec.rounds);
        const size_t total_steps =
            (static_cast<size_t>(spec.step_rate * seconds) / (slots * rounds) *
                 rounds +
             static_cast<size_t>(spec.hold_iterations)) *
            slots;
        threads.emplace_back([&in, i, client, t0, total_steps, out] {
          OpenConnection(in, i, client, t0, total_steps, out);
        });
      }
    }
    for (std::thread& th : threads) th.join();
  }
  Clock::time_point end = t0;
  for (const ThreadResult& r : results) end = std::max(end, r.end);
  run.timed_s = MsBetween(t0, end) / 1000.0;
  run.cpu_s = ProcessCpuSeconds() - cpu0;
  run.counters_after = Scrape(&clients[0]);
  if (watcher) {
    watcher->Stop();
    run.ckpt_count = watcher->count();
    run.ckpt_bytes_total = watcher->bytes();
  }
  if (trace) restune::obs::Tracer::Global()->Stop();

  auto absorb = [&run](ThreadResult& r) {
    const size_t base = run.logs.size();
    for (Held& h : r.held) {
      h.log += base;
      run.held.push_back(h);
    }
    for (SessionLog& log : r.logs) run.logs.push_back(std::move(log));
    run.tally.Merge(r.tally);
    run.check_failures.insert(run.check_failures.end(), r.checks.begin(),
                              r.checks.end());
  };
  for (ThreadResult& r : results) absorb(r);
  SpanLog::Global()->Enable(false);

  if (spec.loop == LoopKind::kClosed) {
    std::vector<ThreadResult> holds(static_cast<size_t>(spec.tenants));
    std::vector<std::thread> threads;
    for (int i = 0; i < spec.tenants; ++i) {
      threads.emplace_back([&in, &holds, &clients, i] {
        HoldSession(in, i, &clients[static_cast<size_t>(i)],
                    &holds[static_cast<size_t>(i)]);
      });
    }
    for (std::thread& th : threads) th.join();
    for (ThreadResult& r : holds) absorb(r);
  }

  // Restart: the final state goes to disk, the server goes away, and a
  // fresh one recovers from the file. Recovery ends when every held session
  // has answered its outstanding Recommend.
  clients.clear();
  wire->Stop();
  const Clock::time_point s0 = Clock::now();
  const restune::Status saved = server->SaveCheckpointFile(ckpt);
  run.ckpt_save_ms = MsBetween(s0, Clock::now());
  if (!saved.ok()) {
    run.check_failures.push_back("final checkpoint: " + saved.ToString());
  }
  struct stat st{};
  if (stat(ckpt.c_str(), &st) == 0) {
    run.ckpt_bytes = static_cast<double>(st.st_size);
  }
  run.final_ckpt = work_dir + "/final.ckpt";
  std::error_code copy_error;
  std::filesystem::copy_file(ckpt, run.final_ckpt,
                             std::filesystem::copy_options::overwrite_existing,
                             copy_error);
  if (copy_error) {
    run.check_failures.push_back("copy of the final checkpoint: " +
                                 copy_error.message());
    return run;
  }
  wire.reset();
  server.reset();
  run.restarts = TimeRestarts(in, run, 3, work_dir, &run.check_failures);

  // One more restart serves the rest of the run: the held sessions answer
  // (recorded for the replay), their reports go in, and they finish.
  server = std::make_unique<ResTuneServer>(BenchServerOptions(ckpt));
  const restune::Status loaded = server->LoadCheckpointFile(run.final_ckpt);
  if (!loaded.ok()) {
    run.check_failures.push_back("restart: " + loaded.ToString());
    return run;
  }
  wire = std::make_unique<WireServer>(server.get());
  if (!wire->Start().ok()) {
    run.check_failures.push_back("restart: wire server failed to start");
    return run;
  }
  clients = Connect(*wire, 1, &run.check_failures);
  if (clients.empty()) return run;
  Tally drain;
  Tenant t(&clients[0], &drain);
  for (Held& h : run.held) {
    SessionLog& log = run.logs[h.log];
    std::vector<KnobRecommendation> recs;
    if (!t.Ask(&log, 1, false, true, Clock::now(), &recs, nullptr)) continue;
    log.ops.back().after_restart = true;
  }

  for (Held& h : run.held) {
    SessionLog& log = run.logs[h.log];
    if (!t.Report(&log, h.report, false, nullptr)) continue;
    log.ops.back().after_restart = true;
    t.Finish(&log, &run.check_failures);
    log.ops.back().after_restart = true;
  }
  run.tally.attempted += drain.attempted;
  run.tally.failed += drain.failed;
  run.tally.errors.insert(run.tally.errors.end(), drain.errors.begin(),
                          drain.errors.end());
  clients.clear();
  wire->Stop();
  return run;
}

}  // namespace tunebench
