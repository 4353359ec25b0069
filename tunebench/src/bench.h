// Shared types of the tuning-service benchmark (see tunebench/README.md).
//
// The benchmark drives an in-process WireServer over loopback TCP with one of
// three workloads, records every client call per session, and afterwards
// replays the recorded sessions in process to check the answers and to time
// single layers. Nothing here reaches into the program's internals: it uses
// the public TuningClient / ResTuneServer calls, the harness generators, and
// the layers' public entry points.

#ifndef TUNEBENCH_BENCH_H_
#define TUNEBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dbsim/knob.h"
#include "dbsim/simulator.h"
#include "meta/data_repository.h"
#include "service/messages.h"
#include "service/restune_server.h"

namespace tunebench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median and tail of a latency sample. The tail is the highest of the
/// percentiles {99.9, 99, 95, 90, 75, 50} that still has at least ten
/// samples beyond it.
struct Quantiles {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
  size_t n = 0;
};
Quantiles Summarize(std::vector<double> values);
double Median(std::vector<double> values);

/// Bit-for-bit equality of two configurations.
inline bool SameTheta(const restune::Vector& a, const restune::Vector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;  // exact, not approximate
  }
  return true;
}

// ---------------------------------------------------------------------------
// Workload definition

enum class LoopKind { kClosed, kOpen };

struct WorkloadSpec {
  std::string name;
  LoopKind loop = LoopKind::kClosed;
  bool cpu_space = false;     // 14-knob CpuKnobSpace, else 3-knob case study
  bool repository = false;    // BuildPaperRepository (34 tasks x 80 obs)
  bool faults = false;        // soak fault mix on every replay
  int tenants = 4;            // client threads == connections
  int batch_width = 1;        // RecommendBatch width (1 = Recommend)
  int min_iterations = 0;     // session length range (closed loop)
  int max_iterations = 0;
  int hold_iterations = 0;    // iterations the held session runs first
  // Open loop only.
  int slots = 0;              // concurrently active session slots
  double step_rate = 0.0;     // steps (one recommend + report) per second
  int burst = 1;              // steps falling due together
  int rounds = 0;             // steps per session
  double retry_prob = 0.0;    // idempotent re-Recommend after a Recommend
  double duplicate_prob = 0.0;  // duplicate ReportEvaluation
  int scrape_every = 0;       // MetricsText scrape every n steps per thread
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Inputs shared by every session of a run: the knob space, the repository
/// (possibly empty), and one meta-feature per candidate workload.
struct RunInputs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  restune::KnobSpace space{std::vector<restune::KnobDef>{}};
  restune::DataRepository repository;
  std::vector<restune::WorkloadProfile> workloads;
  std::vector<restune::Vector> meta_features;
};
RunInputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// One tenant session's generated inputs: the client-side simulated DBMS
/// and the submission built from its default-configuration replay.
struct SessionPlan {
  size_t index = 0;  // global plan index, the session's identity in a run
  int iterations = 0;
  std::unique_ptr<restune::DbInstanceSimulator> sim;
  restune::TargetTaskSubmission submission;
  uint64_t shuffle_seed = 0;
};
SessionPlan MakePlan(const RunInputs& inputs, size_t index);

/// Server options the benchmark uses: durability on (checkpoint path set,
/// default period), no archiving of finished sessions so that every
/// session's answers depend on its own inputs only.
restune::ServerOptions BenchServerOptions(const std::string& checkpoint_path);

// ---------------------------------------------------------------------------
// Recording

enum class OpKind { kStart, kRecommend, kBatch, kReport, kFinish };

/// One client call, as issued, with what the server answered.
struct Op {
  OpKind kind = OpKind::kStart;
  int width = 0;          // kBatch
  bool repeat = false;    // idempotent retry / duplicate report
  bool after_restart = false;
  restune::EvaluationReport report;                  // kReport
  std::vector<restune::KnobRecommendation> recs;     // kRecommend / kBatch
  restune::SessionSummary summary;                   // kFinish
  double rtt_ms = 0.0;    // client-observed round trip
  bool ok = true;
};

struct SessionLog {
  size_t index = 0;
  bool core = false;      // part of the deterministic quality set
  uint64_t session_id = 0;
  restune::TargetTaskSubmission submission;
  std::vector<Op> ops;
  int acked = 0;          // acknowledged (first-time) reports
  bool finished = false;
  double default_res = 0.0;
};

/// Per-thread latency and outcome tallies of a wire run.
struct Tally {
  std::vector<double> recommend_ms, report_ms, start_ms, eval_ms, late_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t iterations = 0;  // acknowledged reports inside the timed window
  std::vector<std::string> errors;
  void Merge(const Tally& other);
};

/// A held recommendation: the session's outstanding iteration at the end
/// of the run, evaluated but not yet reported, carried across the restart.
struct Held {
  size_t log = 0;  // index into WireRun::logs
  restune::KnobRecommendation rec;
  restune::EvaluationReport report;
};

/// Restarts from the final checkpoint: per restart, the seconds until
/// every held session answered its outstanding Recommend, and the
/// LoadCheckpointFile part in milliseconds.
struct RestartTiming {
  std::vector<double> recover_s, load_ms;
};

struct WireRun {
  std::vector<SessionLog> logs;
  Tally tally;
  double timed_s = 0.0;
  double cpu_s = 0.0;
  std::vector<Held> held;
  std::string final_ckpt;       // copy of the final state, for restarts
  RestartTiming restarts;       // the restarts right after the window
  // The final state's checkpoint: SaveCheckpointFile and its size.
  double ckpt_save_ms = 0.0, ckpt_bytes = 0.0;
  int64_t ckpt_count = 0;      // auto-checkpoint renames seen (traced only)
  double ckpt_bytes_total = 0; // their sizes
  std::map<std::string, double> counters_before, counters_after;
  std::vector<std::string> check_failures;
};

/// Runs the timed wire phase, the restart, and the drain. `trace` turns on
/// the program's tracer plus the benchmark's client spans.
WireRun RunWire(const RunInputs& inputs, double seconds, bool trace,
                const std::string& work_dir);

/// Restarts `reps` times from `run.final_ckpt`: a fresh server loads it,
/// the wire face starts, clients connect, and every held session must
/// answer its outstanding Recommend unchanged.
RestartTiming TimeRestarts(const RunInputs& in, const WireRun& run, int reps,
                           const std::string& work_dir,
                           std::vector<std::string>* failures);

/// Server set-up as a deployment pays it: a fresh server ingests the
/// repository, the base-learner cache is filled, and the wire face starts.
/// Returns the seconds taken and the cache-fill part in milliseconds.
struct SetupTiming {
  double total_s = 0.0;
  double train_ms = 0.0;
};
SetupTiming TimeSetup(const RunInputs& inputs, const std::string& work_dir);

// ---------------------------------------------------------------------------
// Replay and checks

struct ReplayResult {
  std::vector<std::string> failures;
  std::vector<double> call_ms;          // solo ResTuneServer calls
  std::vector<double> overhead_ms;      // wire RTT - solo call, per call
  double solo_total_ms = 0.0;
  double rtt_total_ms = 0.0;
  std::map<std::string, double> core_counters;  // counter deltas, core set
  // Layer timings (traced runs only).
  std::vector<double> suggest_ms, observe_ms, observe_failure_ms;
  double fit_probe_ms = 0.0;
};

/// Replays every recorded session against fresh in-process servers and
/// compares each answer bit for bit with what the wire returned. With
/// `layers`, additionally replays the sessions through ResTuneAdvisor
/// directly and times MultiOutputGp::Fit and the checkpoint file calls.
ReplayResult Replay(const RunInputs& inputs, const WireRun& run, bool layers,
                    const std::string& work_dir);

// ---------------------------------------------------------------------------
// Spans

/// A benchmark-side span, kept in memory and written when the run ends.
struct Span {
  std::string name;
  uint64_t session = 0;
  int iteration = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t parent = -1;
  int tid = 0;
};

class SpanLog {
 public:
  static SpanLog* Global();
  void Enable(bool on);
  int64_t NowUs() const;
  /// Opens a span on the calling thread; returns its id (-1 when off).
  int64_t Begin(const char* name, uint64_t session, int iteration);
  void End(int64_t id);
  /// Records an already-closed span (e.g. from a watcher thread).
  void Add(Span span);
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  const Clock::time_point epoch_ = Clock::now();
};

class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t session, int iteration)
      : id_(SpanLog::Global()->Begin(name, session, iteration)) {}
  ~ScopedSpan() { SpanLog::Global()->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

/// Parses the Prometheus text the server exports into name -> value.
std::map<std::string, double> ParseMetrics(const std::string& text);
double ProcessCpuSeconds();
double PeakRssMb();

}  // namespace tunebench

#endif  // TUNEBENCH_BENCH_H_
