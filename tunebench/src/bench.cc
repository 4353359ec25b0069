// Workload definitions, generated inputs, and the small utilities the
// benchmark shares: quantiles, in-memory spans, metric parsing, process
// resource readings.

#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ctime>
#include <mutex>
#include <sstream>

#include "common/rng.h"
#include "tuner/harness.h"
#include "tuner/supervisor.h"

namespace tunebench {
namespace {

uint64_t Mix(uint64_t a, uint64_t b) {
  // splitmix64 finalizer over the pair: decorrelates per-session seeds.
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> s;
    WorkloadSpec deep;
    deep.name = "deep-cpu14";
    deep.loop = LoopKind::kClosed;
    deep.cpu_space = true;
    deep.repository = true;
    deep.tenants = 4;
    deep.batch_width = 1;
    deep.min_iterations = 60;
    deep.max_iterations = 80;
    deep.hold_iterations = 10;
    s.push_back(deep);

    WorkloadSpec cold;
    cold.name = "cold-batch-faults";
    cold.loop = LoopKind::kClosed;
    cold.faults = true;
    cold.tenants = 3;
    cold.batch_width = 4;
    cold.min_iterations = 190;
    cold.max_iterations = 210;
    cold.hold_iterations = 60;
    s.push_back(cold);

    WorkloadSpec fleet;
    fleet.name = "fleet-churn";
    fleet.loop = LoopKind::kOpen;
    fleet.tenants = 4;
    fleet.slots = 64;
    fleet.step_rate = 160.0;
    fleet.burst = 32;
    fleet.rounds = 10;
    fleet.hold_iterations = 8;
    fleet.retry_prob = 0.1;
    fleet.duplicate_prob = 0.1;
    fleet.scrape_every = 100;
    s.push_back(fleet);
    return s;
  }();
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quantiles Summarize(std::vector<double> values) {
  Quantiles q;
  q.n = values.size();
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  auto at = [&](double pct) {
    // Nearest-rank percentile.
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(q.n));
    const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return values[std::min(i, q.n - 1)];
  };
  q.p50 = Median(values);
  q.tail = q.p50;
  q.tail_pct = 50.0;
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const double beyond =
        std::floor(static_cast<double>(q.n) * (1.0 - pct / 100.0));
    if (beyond >= 10.0) {
      q.tail = at(pct);
      q.tail_pct = pct;
      break;
    }
  }
  return q;
}

void Tally::Merge(const Tally& other) {
  auto append = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  append(&recommend_ms, other.recommend_ms);
  append(&report_ms, other.report_ms);
  append(&start_ms, other.start_ms);
  append(&eval_ms, other.eval_ms);
  append(&late_ms, other.late_ms);
  attempted += other.attempted;
  failed += other.failed;
  iterations += other.iterations;
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
}

// ---------------------------------------------------------------------------
// Inputs

RunInputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  RunInputs in;
  in.spec = &spec;
  in.seed = seed;
  in.space = spec.cpu_space ? restune::CpuKnobSpace()
                            : restune::CaseStudyKnobSpace();
  // The characterizer is a fixed model, not an input: its default seed
  // keeps the meta-features the same on every run.
  const restune::WorkloadCharacterizer characterizer =
      restune::TrainDefaultCharacterizer();
  in.workloads = restune::StandardWorkloads();
  for (const restune::WorkloadProfile& w : in.workloads) {
    in.meta_features.push_back(restune::ComputeMetaFeature(characterizer, w));
  }
  if (spec.repository) {
    restune::ExperimentConfig config;
    config.resource = restune::ResourceKind::kCpu;
    config.seed = Mix(seed, 3);
    in.repository =
        restune::BuildPaperRepository(in.space, characterizer, config, 80);
  }
  return in;
}

SessionPlan MakePlan(const RunInputs& inputs, size_t index) {
  const WorkloadSpec& spec = *inputs.spec;
  SessionPlan plan;
  plan.index = index;
  const size_t w = index % inputs.workloads.size();
  const char instance = "CDEF"[index % 4];
  const int range = std::max(1, spec.max_iterations - spec.min_iterations + 1);
  plan.iterations = spec.loop == LoopKind::kOpen
                        ? spec.rounds
                        : spec.min_iterations +
                              static_cast<int>((index * 13) % range);
  plan.shuffle_seed = Mix(inputs.seed, 1000003 + index);

  restune::ExperimentConfig config;
  config.resource = restune::ResourceKind::kCpu;
  config.seed = Mix(inputs.seed, 7919 + index);
  if (spec.faults) {
    // The soak's fault mix: 20% of attempts fault in some way.
    config.faults.enabled = true;
    config.faults.seed = Mix(inputs.seed, 104729 + index);
    config.faults.crash_prob = 0.04;
    config.faults.timeout_prob = 0.04;
    config.faults.transient_prob = 0.08;
    config.faults.corrupt_prob = 0.04;
  }
  restune::Result<restune::DbInstanceSimulator> sim = restune::MakeSimulator(
      inputs.space, instance, inputs.workloads[w], config);
  plan.sim = std::make_unique<restune::DbInstanceSimulator>(
      std::move(sim).value());

  // The default configuration is measured until one replay comes back
  // clean: the SLA has to come from a real measurement.
  const restune::Vector default_theta = inputs.space.DefaultTheta();
  restune::Observation def;
  for (int attempt = 0; attempt < 100; ++attempt) {
    restune::Result<restune::EvaluationOutcome> outcome =
        plan.sim->TryEvaluate(default_theta);
    if (outcome.ok() && outcome->ok() &&
        !restune::EvaluationSupervisor::IsCorrupted(outcome->observation())) {
      def = outcome->observation();
      break;
    }
  }
  plan.submission.task_name = inputs.workloads[w].name + "@" + instance + "#" +
                              std::to_string(index);
  plan.submission.meta_feature = inputs.meta_features[w];
  plan.submission.knob_dim = inputs.space.dim();
  plan.submission.default_theta = default_theta;
  plan.submission.default_observation = def;
  plan.submission.resource = "cpu";
  return plan;
}

restune::ServerOptions BenchServerOptions(const std::string& checkpoint_path) {
  restune::ServerOptions options;
  options.archive_finished_sessions = false;
  options.checkpoint_path = checkpoint_path;
  return options;
}

// ---------------------------------------------------------------------------
// Spans

namespace {

struct SpanStore {
  std::mutex mu;
  std::vector<Span> spans;
};

SpanStore* Store() {
  static SpanStore* store = new SpanStore();
  return store;
}

struct ThreadSpans {
  int tid = -1;
  std::vector<int64_t> stack;
};

ThreadSpans& ThisThread() {
  static std::atomic<int> next_tid{0};
  thread_local ThreadSpans state;
  if (state.tid < 0) state.tid = next_tid.fetch_add(1);
  return state;
}

}  // namespace

SpanLog* SpanLog::Global() {
  static SpanLog* log = new SpanLog();
  return log;
}

void SpanLog::Enable(bool on) { enabled_ = on; }

int64_t SpanLog::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

int64_t SpanLog::Begin(const char* name, uint64_t session, int iteration) {
  if (!enabled_.load()) return -1;
  ThreadSpans& thread = ThisThread();
  Span span;
  span.name = name;
  span.session = session;
  span.iteration = iteration;
  span.start_us = NowUs();
  span.parent = thread.stack.empty() ? -1 : thread.stack.back();
  span.tid = thread.tid;
  SpanStore* store = Store();
  std::lock_guard<std::mutex> lock(store->mu);
  store->spans.push_back(std::move(span));
  const int64_t id = static_cast<int64_t>(store->spans.size()) - 1;
  thread.stack.push_back(id);
  return id;
}

void SpanLog::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowUs();
  ThreadSpans& thread = ThisThread();
  if (!thread.stack.empty()) thread.stack.pop_back();
  SpanStore* store = Store();
  std::lock_guard<std::mutex> lock(store->mu);
  store->spans[static_cast<size_t>(id)].end_us = now;
}

void SpanLog::Add(Span span) {
  SpanStore* store = Store();
  std::lock_guard<std::mutex> lock(store->mu);
  store->spans.push_back(std::move(span));
}

std::vector<Span> SpanLog::Take() {
  SpanStore* store = Store();
  std::lock_guard<std::mutex> lock(store->mu);
  std::vector<Span> out;
  out.swap(store->spans);
  return out;
}

// ---------------------------------------------------------------------------
// Process readings

std::map<std::string, double> ParseMetrics(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    try {
      out[line.substr(0, space)] = std::stod(line.substr(space + 1));
    } catch (...) {
      // Not a sample line; the exposition format allows others.
    }
  }
  return out;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace tunebench
