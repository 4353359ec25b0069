// tunebench: the tuning-service benchmark of record (tunebench/README.md).
//
//   tunebench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints a human-readable report and, as the last line, one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 the run is repeated with tracing on, the recorded
// sessions are replayed layer by layer, and the metrics are the per-layer
// ones; the per-layer ledger goes to DIR/ledger.json and the spans to
// DIR/spans.jsonl.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench.h"
#include "common/fnv.h"
#include "common/logging.h"

namespace tunebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/tunebench-work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr &&
         args->seconds > 0.0;
}

void MakeDirs(const std::string& path) {
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      mkdir(path.substr(0, i).c_str(), 0755);
    }
  }
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double Delta(const WireRun& run, const std::string& name) {
  const auto a = run.counters_after.find(name);
  const auto b = run.counters_before.find(name);
  return (a == run.counters_after.end() ? 0.0 : a->second) -
         (b == run.counters_before.end() ? 0.0 : b->second);
}

double CoreCounter(const ReplayResult& replay, const std::string& name) {
  const auto it = replay.core_counters.find(name);
  return it == replay.core_counters.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean best-feasible resource improvement over the default, in percent,
/// over the core sessions (deterministic for a seed).
double ResReductionPct(const WireRun& run) {
  double sum = 0.0;
  int n = 0;
  for (const SessionLog& log : run.logs) {
    if (!log.core || !log.finished || log.default_res <= 0.0) continue;
    const Op& finish = log.ops.back();
    sum += 100.0 * (log.default_res - finish.summary.best_feasible_res) /
           log.default_res;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

std::vector<Metric> EndToEnd(const WireRun& run, double setup_s,
                             double peak_rss_mb, double recover_s) {
  const Tally& t = run.tally;
  const double iters = static_cast<double>(t.iterations);
  const Quantiles rec = Summarize(t.recommend_ms);
  const Quantiles rep = Summarize(t.report_ms);

  return {
      {"setup_s", setup_s, "s"},
      {"iter_per_s", Ratio(iters, run.timed_s), "1/s"},
      {"recommend_p50_ms", rec.p50, "ms"},
      {"recommend_tail_ms", rec.tail, "ms"},
      {"report_p50_ms", rep.p50, "ms"},
      {"cpu_ms_per_iter", Ratio(1000.0 * run.cpu_s, iters), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"recover_s", recover_s, "s"},
  };
}

// ---------------------------------------------------------------------------
// Ledger

/// One program span from the tracer's JSONL output.
struct ProgramSpan {
  std::string name;
  int64_t t_us = 0, dur_us = 0;
  int tid = 0, depth = 0;
  int64_t self_us = 0;
};

std::string JsonField(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const size_t p = line.find(pat);
  if (p == std::string::npos) return "";
  size_t b = p + pat.size();
  if (line[b] == '"') {
    const size_t e = line.find('"', b + 1);
    return line.substr(b + 1, e - b - 1);
  }
  size_t e = b;
  while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
  return line.substr(b, e - b);
}

/// Reads the program's spans and computes each one's self time: its
/// duration minus the spans nested directly inside it on the same thread.
std::vector<ProgramSpan> ReadProgramSpans(const std::string& path) {
  std::vector<ProgramSpan> spans;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (JsonField(line, "type") != "span") continue;
    ProgramSpan s;
    s.name = JsonField(line, "name");
    s.t_us = std::atoll(JsonField(line, "t_us").c_str());
    s.dur_us = std::atoll(JsonField(line, "dur_us").c_str());
    s.tid = std::atoi(JsonField(line, "tid").c_str());
    s.depth = std::atoi(JsonField(line, "depth").c_str());
    s.self_us = s.dur_us;
    spans.push_back(std::move(s));
  }
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (spans[a].tid != spans[b].tid) return spans[a].tid < spans[b].tid;
    if (spans[a].t_us != spans[b].t_us) return spans[a].t_us < spans[b].t_us;
    return spans[a].depth < spans[b].depth;
  });
  std::vector<size_t> stack;
  int tid = -1;
  for (size_t i : order) {
    ProgramSpan& s = spans[i];
    if (s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    while (!stack.empty() &&
           (spans[stack.back()].depth >= s.depth ||
            spans[stack.back()].t_us + spans[stack.back()].dur_us <= s.t_us)) {
      stack.pop_back();
    }
    if (!stack.empty() && spans[stack.back()].depth == s.depth - 1) {
      spans[stack.back()].self_us -= s.dur_us;
    }
    stack.push_back(i);
  }
  return spans;
}

std::string LayerOf(const std::string& span) {
  if (span.rfind("acq.", 0) == 0) return "bo";
  if (span.rfind("gp.", 0) == 0) return "gp";
  if (span.rfind("meta.", 0) == 0) return "meta";
  return "tuner";  // advisor.*, session.*, eval.*
}

struct LedgerRow {
  std::string layer;
  double self_ms = 0.0;
  int64_t count = 0;
  double share = 0.0;  // of client-observed time
};

struct Ledger {
  double client_ms = 0.0;
  int64_t client_calls = 0;
  std::vector<LedgerRow> rows;  // measured layers, then "unattributed"
  std::string dominant;
  double dbsim_ms = 0.0;
  double solo_ms = 0.0, matched_rtt_ms = 0.0;
  std::map<std::string, double> span_self_ms;  // by program span name
};

Ledger BuildLedger(const std::vector<Span>& spans,
                   const std::vector<ProgramSpan>& program,
                   const ReplayResult& replay) {
  Ledger ledger;
  std::map<std::string, LedgerRow> rows;
  for (const char* layer : {"tuner", "meta", "gp", "bo", "service.checkpoint"}) {
    rows[layer].layer = layer;
  }
  for (const Span& s : spans) {
    const double ms = static_cast<double>(s.end_us - s.start_us) / 1000.0;
    if (s.name.rfind("client.", 0) == 0) {
      ledger.client_ms += ms;
      ++ledger.client_calls;
    } else if (s.name == "service.checkpoint") {
      rows["service.checkpoint"].self_ms += ms;
      ++rows["service.checkpoint"].count;
    } else if (s.name == "dbsim.eval") {
      ledger.dbsim_ms += ms;
    }
  }
  for (const ProgramSpan& p : program) {
    LedgerRow& row = rows[LayerOf(p.name)];
    row.self_ms += static_cast<double>(p.self_us) / 1000.0;
    ++row.count;
    ledger.span_self_ms[p.name] += static_cast<double>(p.self_us) / 1000.0;
  }
  double attributed = 0.0;
  double best = -1.0;
  for (auto& [name, row] : rows) {
    row.share = Ratio(row.self_ms, ledger.client_ms);
    attributed += row.self_ms;
    if (row.self_ms > best) {
      best = row.self_ms;
      ledger.dominant = name;
    }
    ledger.rows.push_back(row);
  }
  LedgerRow rest;
  rest.layer = "unattributed";
  rest.self_ms = ledger.client_ms - attributed;
  rest.share = Ratio(rest.self_ms, ledger.client_ms);
  ledger.rows.push_back(rest);
  ledger.solo_ms = replay.solo_total_ms;
  ledger.matched_rtt_ms = replay.rtt_total_ms;
  return ledger;
}

void WriteLedger(const std::string& path, const std::string& workload,
                 const Ledger& ledger) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << workload << "\", \"client_ms\": "
      << Num(ledger.client_ms) << ", \"client_calls\": " << ledger.client_calls
      << ", \"dominant\": \"" << ledger.dominant << "\", \"layers\": [";
  for (size_t i = 0; i < ledger.rows.size(); ++i) {
    const LedgerRow& r = ledger.rows[i];
    out << (i ? ", " : "") << "{\"layer\": \"" << r.layer
        << "\", \"self_ms\": " << Num(r.self_ms) << ", \"count\": " << r.count
        << ", \"share_of_client\": " << Num(r.share) << "}";
  }
  out << "], \"dbsim_client_side_ms\": " << Num(ledger.dbsim_ms)
      << ", \"replay_solo_service_ms\": " << Num(ledger.solo_ms)
      << ", \"replay_matched_rtt_ms\": " << Num(ledger.matched_rtt_ms)
      << ", \"program_span_self_ms\": {";
  size_t i = 0;
  for (const auto& [name, ms] : ledger.span_self_ms) {
    out << (i++ ? ", " : "") << "\"" << name << "\": " << Num(ms);
  }
  out << "}}\n";
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\": \"" << s.name << "\", \"id\": \"" << s.session << ":"
        << s.iteration << "\", \"start_us\": " << s.start_us
        << ", \"end_us\": " << s.end_us << ", \"parent\": " << s.parent
        << ", \"tid\": " << s.tid << "}\n";
  }
}

/// FNV-1a of this program's own executable: the repeat check compares only
/// runs of the same build, so a change that alters results on purpose does
/// not trip over records an older build left in the work directory.
std::string ExecutableDigest() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  restune::Fnv1a fnv;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    fnv.AddBytes(buf, static_cast<size_t>(in.gcount()));
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv.hash()));
  return hex;
}

/// Compares the deterministic outputs of this run with those an earlier
/// run of the same workload and seed left in `dir`, or records them.
void CheckRepeat(const std::string& dir, const std::string& key,
                 const std::vector<Metric>& exact,
                 std::vector<std::string>* failures) {
  std::ostringstream now;
  for (const Metric& m : exact) now << m.name << ' ' << Num(m.value) << '\n';
  const std::string path = dir + "/" + key + ".txt";
  std::ifstream in(path);
  if (in) {
    std::stringstream before;
    before << in.rdbuf();
    if (before.str() != now.str()) {
      failures->push_back("deterministic outputs differ from an earlier run "
                          "of the same seed (" + path + ")");
    }
    return;
  }
  std::ofstream(path) << now.str();
}

}  // namespace
}  // namespace tunebench

int main(int argc, char** argv) {
  using namespace tunebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tunebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\nworkloads:");
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  restune::Logger::SetThreshold(restune::LogLevel::kError);
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const std::string dir =
      args.work_dir + "/" + spec.name + "-" + std::to_string(args.seed);
  MakeDirs(dir);
  MakeDirs(args.work_dir + "/repeat");

  // Set-up is everything before the first timed request: generating the
  // inputs, starting a server, ingesting the repository, filling the
  // base-learner cache. It is repeated and the median reported.
  std::vector<double> setup_s, train_ms;
  std::optional<RunInputs> inputs_slot;
  const int reps = spec.repository ? 3 : 9;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point g0 = Clock::now();
    inputs_slot.emplace(MakeInputs(spec, args.seed));
    const double gen_s = MsBetween(g0, Clock::now()) / 1000.0;
    const SetupTiming t = TimeSetup(*inputs_slot, dir);
    setup_s.push_back(gen_s + t.total_s);
    train_ms.push_back(t.train_ms);
  }
  const RunInputs& inputs = *inputs_slot;
  const double setup = Median(setup_s);

  std::vector<std::string> failures;
  const WireRun run = RunWire(inputs, args.seconds, false, dir);
  const double peak_rss = PeakRssMb();
  const Clock::time_point r0 = Clock::now();
  const ReplayResult replay = Replay(inputs, run, false, dir);
  const double replay_s = MsBetween(r0, Clock::now()) / 1000.0;
  // Three more restarts, seconds after the first three: a slow spell of the
  // machine seldom covers both groups.
  RestartTiming restarts = run.restarts;
  const RestartTiming later = TimeRestarts(inputs, run, 3, dir, &failures);
  restarts.recover_s.insert(restarts.recover_s.end(), later.recover_s.begin(),
                            later.recover_s.end());
  restarts.load_ms.insert(restarts.load_ms.end(), later.load_ms.begin(),
                          later.load_ms.end());
  failures.insert(failures.end(), run.check_failures.begin(),
                  run.check_failures.end());
  failures.insert(failures.end(), run.tally.errors.begin(),
                  run.tally.errors.end());
  failures.insert(failures.end(), replay.failures.begin(),
                  replay.failures.end());
  const std::vector<Metric> e2e =
      EndToEnd(run, setup, peak_rss, Median(restarts.recover_s));

  const Tally& t = run.tally;
  std::printf("timed %.3f s: %lld iterations, %zu sessions (%zu held across "
              "the restart), %lld calls, %lld failed (error_frac %.6f)\n",
              run.timed_s, static_cast<long long>(t.iterations),
              run.logs.size(), run.held.size(),
              static_cast<long long>(t.attempted),
              static_cast<long long>(t.failed),
              Ratio(static_cast<double>(t.failed),
                    static_cast<double>(t.attempted)));
  // The client-observed samples: two quantiles of each in the report, all
  // of them in latency_ms.json.
  const std::vector<std::pair<const char*, const std::vector<double>*>>
      series = {{"recommend", &t.recommend_ms},
                {"report", &t.report_ms},
                {"start_session", &t.start_ms},
                {"generator_late", &t.late_ms}};
  std::ofstream raw(dir + "/latency_ms.json");
  raw << "{";
  for (size_t i = 0; i < series.size(); ++i) {
    const auto& [label, values] = series[i];
    if (!values->empty()) {
      const Quantiles q = Summarize(*values);
      std::printf("  %-14s p50 %.4f ms, tail p%g %.4f ms (%zu samples)\n",
                  label, q.p50, q.tail_pct, q.tail, q.n);
    }
    raw << (i ? ", " : "") << "\"" << label << "\": [";
    for (size_t j = 0; j < values->size(); ++j) {
      raw << (j ? ", " : "") << Num((*values)[j]);
    }
    raw << "]";
  }
  raw << "}\n";
  raw.close();
  std::printf("  set-up median of %d: %.4f s (cache fill %.1f ms); restart "
              "%.3f s; replay check %.3f s\n",
              reps, setup, Median(train_ms), Median(restarts.recover_s),
              replay_s);
  for (const Metric& m : e2e) {
    std::printf("  %-22s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-22s %.6g %% (core sessions, exact for a seed)\n",
              "res_reduction_pct", ResReductionPct(run));

  // Exact repeats for a seed: quality and the core set's layer counters.
  std::vector<Metric> exact = {
      {"res_reduction_pct", ResReductionPct(run), "%"},
      {"gp.hyperopts", CoreCounter(replay, "restune_gp_hyperopts_total"), ""},
      {"bo.candidates", CoreCounter(replay, "restune_acq_candidates_total"), ""},
      {"meta.weight_recomputes",
       CoreCounter(replay, "restune_meta_weight_recomputes_total"), ""},
  };
  CheckRepeat(args.work_dir + "/repeat",
              spec.name + "-" + std::to_string(args.seed) + "-" +
                  ExecutableDigest(),
              exact, &failures);

  std::vector<Metric> out = e2e;
  if (args.trace) {
    const WireRun traced = RunWire(inputs, args.seconds, true, dir);
    SpanLog::Global()->Enable(true);
    const ReplayResult layers = Replay(inputs, traced, true, dir);
    SpanLog::Global()->Enable(false);
    failures.insert(failures.end(), traced.check_failures.begin(),
                    traced.check_failures.end());
    failures.insert(failures.end(), layers.failures.begin(),
                    layers.failures.end());
    if (ResReductionPct(traced) != ResReductionPct(run)) {
      failures.push_back("res_reduction_pct differs between two runs");
    }
    for (const char* name :
         {"restune_gp_hyperopts_total", "restune_acq_candidates_total",
          "restune_meta_weight_recomputes_total"}) {
      if (CoreCounter(layers, name) != CoreCounter(replay, name)) {
        failures.push_back(std::string(name) + " differs between two runs");
      }
    }
    const std::vector<Metric> traced_e2e = EndToEnd(
        traced, setup, PeakRssMb(), Median(traced.restarts.recover_s));
    std::printf("tracing overhead (traced - untraced):\n");
    for (size_t i = 0; i < e2e.size(); ++i) {
      std::printf("  %-22s %+.6g %s\n", e2e[i].name.c_str(),
                  traced_e2e[i].value - e2e[i].value, e2e[i].unit.c_str());
    }

    const std::vector<Span> spans = SpanLog::Global()->Take();
    const std::vector<ProgramSpan> program =
        ReadProgramSpans(dir + "/program_trace.jsonl");
    const Ledger ledger = BuildLedger(spans, program, layers);
    WriteLedger(dir + "/ledger.json", spec.name, ledger);
    WriteSpans(dir + "/spans.jsonl", spans);
    std::printf("ledger (traced wire run; share of %.1f ms client-observed "
                "time over %lld calls):\n",
                ledger.client_ms, static_cast<long long>(ledger.client_calls));
    for (const LedgerRow& r : ledger.rows) {
      std::printf("  %-20s self %10.1f ms  count %7lld  share %.4f\n",
                  r.layer.c_str(), r.self_ms, static_cast<long long>(r.count),
                  r.share);
    }
    std::printf("  dominant layer: %s\n", ledger.dominant.c_str());
    std::printf("  client-side replay (dbsim, outside the round trips): "
                "%.1f ms\n", ledger.dbsim_ms);
    std::printf("  replay: solo service %.1f ms of %.1f ms matched round "
                "trips; the rest is net + queueing\n",
                ledger.solo_ms, ledger.matched_rtt_ms);

    auto share = [&](const std::string& layer) {
      for (const LedgerRow& r : ledger.rows) {
        if (r.layer == layer) return r.share;
      }
      return 0.0;
    };
    auto span_s = [&](const std::string& name) {
      const auto it = ledger.span_self_ms.find(name);
      return it == ledger.span_self_ms.end() ? 0.0 : it->second / 1000.0;
    };
    const double iters = static_cast<double>(run.tally.iterations);
    const double hits = Delta(run, "restune_meta_base_learner_cache_hits_total");
    const double misses =
        Delta(run, "restune_meta_base_learner_cache_misses_total");
    out = {
        {"bo.sweep_s", span_s("acq.sweep"), "s"},
        {"bo.refine_s", span_s("acq.refine"), "s"},
        {"bo.candidates", CoreCounter(layers, "restune_acq_candidates_total"),
         "count"},
        {"bo.cei_evals",
         CoreCounter(layers, "restune_acq_cei_evaluations_total"), "count"},
        {"bo.rejected_ratio",
         Ratio(CoreCounter(layers, "restune_acq_rejected_total"),
               CoreCounter(layers, "restune_acq_candidates_total")),
         "ratio"},
        {"meta.weights_s", span_s("meta.weights"), "s"},
        {"meta.weight_recomputes",
         CoreCounter(layers, "restune_meta_weight_recomputes_total"), "count"},
        {"meta.base_learner_cache_hit_ratio", Ratio(hits, hits + misses),
         "ratio"},
        {"meta.train_base_learners_ms", Median(train_ms), "ms"},
        {"gp.fit_s", span_s("gp.fit"), "s"},
        {"gp.hyperopt_s", span_s("gp.hyperopt"), "s"},
        {"gp.fits", CoreCounter(layers, "restune_gp_fits_total"), "count"},
        {"gp.hyperopts", CoreCounter(layers, "restune_gp_hyperopts_total"),
         "count"},
        {"gp.predict_points",
         CoreCounter(layers, "restune_gp_predict_points_total"), "count"},
        {"gp.fit_probe_ms", layers.fit_probe_ms, "ms"},
        {"tuner.suggest_p50_ms", Median(layers.suggest_ms), "ms"},
        {"tuner.observe_p50_ms", Median(layers.observe_ms), "ms"},
        {"tuner.observe_failure_p50_ms", Median(layers.observe_failure_ms),
         "ms"},
        {"service.call_p50_ms", Median(replay.call_ms), "ms"},
        {"service.wait_share",
         1.0 - Ratio(replay.solo_total_ms, replay.rtt_total_ms), "ratio"},
        {"service.ckpt_save_ms", run.ckpt_save_ms, "ms"},
        {"service.ckpt_bytes", run.ckpt_bytes, "bytes"},
        {"service.ckpts", static_cast<double>(traced.ckpt_count), "count"},
        {"service.ckpt_bytes_per_iter",
         Ratio(traced.ckpt_bytes_total,
               static_cast<double>(traced.tally.iterations)),
         "bytes"},
        {"service.ckpt_load_ms", Median(restarts.load_ms), "ms"},
        {"net.bytes_per_iter",
         Ratio(Delta(run, "restune_net_bytes_rx_total") +
                   Delta(run, "restune_net_bytes_tx_total"),
               iters),
         "bytes"},
        {"net.frames_rx", Delta(run, "restune_net_frames_rx_total"), "count"},
        {"net.read_paused", Delta(run, "restune_net_read_paused_total"),
         "count"},
        {"net.slow_disconnects",
         Delta(run, "restune_net_slow_client_disconnects_total"), "count"},
        {"net.rtt_overhead_p50_ms", Median(replay.overhead_ms), "ms"},
        // The pool counts loops it ran inline apart from loops it spread
        // over its workers.
        {"pool.inline_ratio",
         Ratio(Delta(run, "restune_pool_inline_loops_total"),
               Delta(run, "restune_pool_inline_loops_total") +
                   Delta(run, "restune_pool_loops_total")),
         "ratio"},
        {"dbsim.eval_p50_ms", Median(run.tally.eval_ms), "ms"},
        {"ledger.tuner_share", share("tuner"), "ratio"},
        {"ledger.meta_share", share("meta"), "ratio"},
        {"ledger.gp_share", share("gp"), "ratio"},
        {"ledger.bo_share", share("bo"), "ratio"},
        {"ledger.checkpoint_share", share("service.checkpoint"), "ratio"},
        {"ledger.unattributed_share", share("unattributed"), "ratio"},
    };
  }

  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = failures.empty() && run.tally.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, t.attempted)),
              static_cast<long long>(t.failed));
  for (size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                out[i].name.c_str(), Num(out[i].value).c_str(),
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
