// layerbench: the repository's benchmark program (see README.md here).
//
//   layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--size full|smoke] [--corrupt-trace]
//              [--state-dir <dir> --build-id <id>] [--trace-out <file>]
//
// --trace 0 times whole fbfsim-shaped runs (setup, engine run, metrics
// export) until --seconds have passed and prints the end-to-end metrics;
// --trace 1 times the same work in spans around each layer call, plus
// per-layer replays, and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// Exit status: 0 when every gate passed, 1 when a correctness or
// determinism gate failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "codes/xor_kernels.h"
#include "core/experiment.h"
#include "replay.h"
#include "spans.h"
#include "util/check.h"
#include "workloads.h"

namespace layerbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  Size size = Size::Full;
  bool corrupt_trace = false;
  std::string state_dir;
  std::string build_id;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--corrupt-trace") {
      a.corrupt_trace = true;
      continue;
    }
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + key);
    }
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
      if (a.trace != 0 && a.trace != 1) {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
    } else if (key == "--size") {
      if (value != "full" && value != "smoke") {
        throw std::invalid_argument("--size must be full or smoke");
      }
      a.size = value == "full" ? Size::Full : Size::Smoke;
    } else if (key == "--state-dir") {
      a.state_dir = value;
    } else if (key == "--build-id") {
      a.build_id = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  return a;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: the gate totals and the metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< gate messages, first few kept
  std::vector<Metric> metrics;

  void add_gate(const GateResult& g) {
    attempted += g.attempted;
    failed += g.failed;
    fail(g.error);
  }
  void fail(const std::string& message) {
    if (!message.empty() && errors.size() < 8) {
      errors.push_back(message);
    }
  }
  bool correct() const { return failed == 0 && errors.empty(); }
};

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Compares `record` with the one stored for the same (workload, size,
/// seed, build) by an earlier process, storing it when none exists, so
/// the determinism gate also spans processes. Corrupted-trace runs neither
/// store nor compare.
std::string check_stored(const Args& args, const std::string& kind,
                         const Record& record) {
  if (args.state_dir.empty() || args.build_id.empty() || args.corrupt_trace) {
    return {};
  }
  std::ostringstream text;
  for (const auto& [name, value] : record) {
    text << name << ' ' << std::bit_cast<std::uint64_t>(value) << '\n';
  }
  const std::filesystem::path path =
      std::filesystem::path(args.state_dir) /
      (args.workload + (args.size == Size::Full ? ".full." : ".smoke.") +
       std::to_string(args.seed) + "." + args.build_id + "." + kind);
  std::ifstream in(path);
  if (in) {
    std::stringstream stored;
    stored << in.rdbuf();
    return stored.str() == text.str()
               ? std::string{}
               : "determinism gate: " + kind + " record differs from an "
                     "earlier run with the same seed (" + path.string() + ")";
  }
  std::filesystem::create_directories(path.parent_path());
  std::ofstream(path) << text.str();
  return {};
}

std::string first_difference(const Record& a, const Record& b) {
  if (a.size() != b.size()) {
    return "record length";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::bit_cast<std::uint64_t>(a[i].second) !=
            std::bit_cast<std::uint64_t>(b[i].second)) {
      return a[i].first;
    }
  }
  return {};
}

/// Peak resident memory of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, does not carry over the launcher's peak across exec.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics from untraced runs.

/// Independent instances of the workload per run. Their seeds derive from
/// --seed, and each simulated end-to-end metric is the median over them:
/// a single instance's app latency is at the mercy of whether a Zipf hot
/// spot lands on a damaged stripe, and the median of five is not.
constexpr int kInstances = 5;

std::uint64_t instance_seed(std::uint64_t seed, int k) {
  return seed * kInstances + static_cast<std::uint64_t>(k);
}

constexpr int kMaxTimedRuns = 1000;
/// Setups per timed run; setup_s is the fastest of all of them.
constexpr int kSetupsPerRun = 5;

/// Host-speed probe: a fixed hash-map and sort kernel built from the
/// standard library only, so no change to src/ moves it. Its fastest time
/// in a run says how fast the host ran during that run. Host metrics are
/// scaled to a host that runs the probe in kProbeReferenceSeconds, which
/// cancels the slow drift of a shared host (README.md, "Host metrics").
constexpr double kProbeReferenceSeconds = 0.012;

/// Written by the probe so the compiler keeps its work.
volatile std::uint64_t probe_sink = 0;

double probe_seconds() {
  // About 2 MiB live, below every workload's own peak, so the probe does
  // not move peak_rss_mb.
  constexpr std::size_t kKeys = 1 << 15;
  std::vector<std::uint64_t> keys(kKeys);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t& k : keys) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    k = x;
  }
  const auto t0 = Clock::now();
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (const std::uint64_t k : keys) {
    map[k] = k;
  }
  std::uint64_t misses = 0;
  for (int pass = 0; pass < 8; ++pass) {
    for (const std::uint64_t k : keys) {
      misses += map.find(k ^ static_cast<std::uint64_t>(pass & 1)) == map.end();
    }
  }
  std::sort(keys.begin(), keys.end());
  const double s = seconds_since(t0);
  probe_sink = misses + keys.front();
  return s;
}

Outcome run_timed(const Args& args) {
  std::vector<fbf::core::ExperimentConfig> configs;
  for (int k = 0; k < kInstances; ++k) {
    configs.push_back(workload_config(args.workload, args.size,
                                      instance_seed(args.seed, k)));
  }
  Outcome out;

  // Warm-up, which doubles as the engine-path cross-check: fbfsim's
  // run_experiment on the same config must give the same simulated
  // metrics as the direct engine calls timed below.
  fbf::core::ExperimentResult reference;
  std::string reference_error;
  try {
    reference = fbf::core::run_experiment(configs[0]);
  } catch (const fbf::util::CheckError& e) {
    reference_error = std::string("run_experiment failed: ") + e.what();
  }

  // Timed runs cycle through the instances; each instance's first run
  // gives its simulated record, and every later run of it must repeat
  // that record bit for bit.
  std::vector<double> setup_s;
  std::vector<double> run_rates;  ///< stripes/s of every timed run
  std::vector<Record> records(kInstances);
  std::vector<double> best_wall(kInstances, 0.0);  ///< 0 until it ran
  std::vector<double> stripes(kInstances, 0.0);
  std::vector<double> probe_s;
  const auto start = Clock::now();
  for (int i = 0; i < kMaxTimedRuns &&
                  (i < kInstances || seconds_since(start) < args.seconds);
       ++i) {
    const int k = i % kInstances;
    const fbf::core::ExperimentConfig& cfg = configs[k];
    probe_s.push_back(probe_seconds());  // while no run's state is alive
    std::unique_ptr<PreparedRun> run;
    for (int j = 0; j < kSetupsPerRun; ++j) {
      const auto t0 = Clock::now();
      auto fresh = std::make_unique<PreparedRun>(cfg, args.corrupt_trace,
                                                 nullptr);
      setup_s.push_back(seconds_since(t0));
      run = std::move(fresh);
    }

    fbf::sim::SimMetrics m;
    std::string run_error;
    const auto t0 = Clock::now();
    try {
      m = run->run(nullptr);
      export_metrics(cfg, m);
    } catch (const fbf::util::CheckError& e) {
      run_error = e.what();
    }
    const double wall = seconds_since(t0);

    const bool ran = run_error.empty();
    out.add_gate(gate(*run, ran ? &m : nullptr, run_error));
    if (!ran) {
      continue;
    }
    stripes[k] = static_cast<double>(m.stripes_recovered);
    run_rates.push_back(stripes[k] / wall);
    best_wall[k] = best_wall[k] == 0.0 ? wall : std::min(best_wall[k], wall);
    Record record = simulated_record(m, run->app.size());
    if (records[k].empty()) {
      records[k] = std::move(record);
      if (k == 0) {
        out.fail(reference_error.empty() ? cross_check(reference, m)
                                         : reference_error);
      }
      out.fail(check_stored(args, "sim" + std::to_string(k), records[k]));
    } else if (const std::string diff = first_difference(records[k], record);
               !diff.empty()) {
      out.fail("determinism gate: " + diff + " differs between runs");
    }
  }

  // Simulated metrics: the median over the instances that ran.
  std::map<std::string, std::vector<double>> sim;
  for (const Record& record : records) {
    for (const auto& [name, value] : record) {
      sim[name].push_back(value);
    }
  }
  // Host metrics: each instance at its fastest run, and the fastest setup,
  // both scaled by the fastest probe to the reference host speed. Other
  // tenants of a shared host only add time, in bursts that move a run's
  // median far more than its minimum, and in drifts over minutes that the
  // probe sees too (see README.md, "Host metrics"). Summing over all
  // instances, rather than taking the single fastest run, keeps the
  // lightest instance from setting the figure.
  double all_stripes = 0.0;
  double all_best_wall = 0.0;
  for (int k = 0; k < kInstances; ++k) {
    all_stripes += stripes[k];
    all_best_wall += best_wall[k];
  }
  const double best_rate = ratio(all_stripes, all_best_wall);
  const double best_setup =
      setup_s.empty() ? 0.0 : *std::min_element(setup_s.begin(), setup_s.end());
  const double host_speed =
      ratio(*std::min_element(probe_s.begin(), probe_s.end()),
            kProbeReferenceSeconds);
  out.metrics = {
      {"stripes_per_s", best_rate * host_speed, "1/s"},
      {"setup_s", ratio(best_setup, host_speed), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"rebuild_s", median(sim["rebuild_s"]), "s"},
      {"disk_reads_per_stripe", median(sim["disk_reads_per_stripe"]), "count"},
      {"hit_ratio", median(sim["hit_ratio"]), "ratio"},
      {"app_mean_ms", median(sim["app_mean_ms"]), "ms"},
      {"deadline_miss_ratio", median(sim["deadline_miss_ratio"]), "ratio"},
  };
  std::cout << "timed runs: " << run_rates.size() << ", unscaled "
            << format_value(best_rate) << " stripes/s (median run "
            << format_value(median(run_rates)) << ")\n"
            << "setups: " << setup_s.size() << ", unscaled fastest "
            << format_value(best_setup) << " s (median "
            << format_value(median(setup_s)) << ")\n"
            << "host probe: fastest " << format_value(host_speed *
                                                       kProbeReferenceSeconds)
            << " s (median " << format_value(median(probe_s))
            << "), reference " << format_value(kProbeReferenceSeconds)
            << " s\n";
  return out;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics from a traced pass over the same work.

/// Layer self times must cover the traced wall to within this share; the
/// rest is the benchmark's own glue and clock reads.
constexpr double kCoverageTolerance = 0.05;

struct Pass {
  double wall_s = 0.0;
  fbf::sim::SimMetrics m;
  std::size_t app_issued = 0;
  std::size_t metrics_bytes = 0;
  std::uint64_t stripes = 0;
  std::uint64_t lost_chunks = 0;
  ReplayCounts replay;
  GateResult gate;
};

/// One pass: setup, engine run, export, validation and the layer replays,
/// each inside its layer's span when `rec` is set.
Pass run_pass(const Args& args, const fbf::core::ExperimentConfig& cfg,
              SpanRecorder* rec) {
  Pass p;
  const auto t0 = Clock::now();
  {
    ScopedSpan root(rec, "bench.pass");
    PreparedRun run(cfg, args.corrupt_trace, rec);
    std::string run_error;
    try {
      p.m = run.run(rec);
      ScopedSpan span(rec, "obs.export");
      p.metrics_bytes = export_metrics(cfg, p.m);
    } catch (const fbf::util::CheckError& e) {
      run_error = e.what();
    }
    {
      ScopedSpan span(rec, "sim.validate");
      p.gate = gate(run, run_error.empty() ? &p.m : nullptr, run_error);
    }
    p.replay = replay_layers(run, rec);
    p.app_issued = run.app.size();
    p.stripes = run.errors.size();
    for (const auto& e : run.errors) {
      p.lost_chunks += static_cast<std::uint64_t>(e.error.num_chunks);
    }
  }
  p.wall_s = seconds_since(t0);
  return p;
}

double span_seconds(const SpanRecorder& rec, const std::string& name) {
  double us = 0.0;
  for (const auto& s : rec.spans()) {
    us += s.name == name ? s.end_us - s.start_us : 0.0;
  }
  return us * 1e-6;
}

/// Per-layer metrics of one traced pass, in BENCHMARK.json's order.
std::vector<Metric> layer_metrics(const Pass& p, const SpanRecorder& rec) {
  const fbf::sim::SimMetrics& m = p.m;
  const ReplayCounts& r = p.replay;
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  double busy_max = 0.0;
  double busy_sum = 0.0;
  for (const double b : m.disk_busy_ms) {
    busy_max = std::max(busy_max, b);
    busy_sum += b;
  }
  std::uint64_t ops_max = 0;
  std::uint64_t ops_sum = 0;
  std::uint64_t active = 0;
  for (const std::uint64_t o : m.disk_ops) {
    ops_max = std::max(ops_max, o);
    ops_sum += o;
    active += o > 0 ? 1 : 0;
  }
  const double disks = static_cast<double>(m.disk_ops.size());
  const double run_s = span_seconds(rec, "sim.run");
  const double fold_s = span_seconds(rec, "codes.fold");
  const double replay_s = span_seconds(rec, "cache.replay");
  const auto self = rec.layer_self_seconds();
  double layers_s = 0.0;
  for (const auto& [layer, s] : self) {
    layers_s += layer == "bench" ? 0.0 : s;
  }
  auto self_of = [&self](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  return {
      {"workload.error_trace_s", span_seconds(rec, "workload.error_trace"), "s"},
      {"workload.app_trace_s", span_seconds(rec, "workload.app_trace"), "s"},
      {"workload.stripes", u(p.stripes), "count"},
      {"workload.lost_chunks", u(p.lost_chunks), "count"},
      {"workload.app_requests", u(p.app_issued), "count"},
      {"recovery.scheme_s", span_seconds(rec, "recovery.scheme"), "s"},
      {"recovery.sequence_s", span_seconds(rec, "recovery.sequence"), "s"},
      {"recovery.formats", u(r.formats), "count"},
      {"recovery.write_plan_s", span_seconds(rec, "recovery.write_plan"), "s"},
      {"recovery.requests_per_stripe",
       ratio(u(m.total_chunk_requests), u(m.stripes_recovered)), "count"},
      {"recovery.schemes_generated", u(m.schemes_generated), "count"},
      {"recovery.write_plans",
       u(m.write.rmw_plans + m.write.rcw_plans + m.write.direct_plans),
       "count"},
      {"recovery.plan_disk_reads", u(m.write.plan_disk_reads), "count"},
      {"recovery.parity_updates", u(m.write.parity_updates), "count"},
      {"cache.replay_s", replay_s, "s"},
      {"cache.ns_per_op", ratio(replay_s * 1e9, u(r.cache_ops)), "ns"},
      {"cache.replay_ops", u(r.cache_ops), "count"},
      {"cache.replay_hit_ratio", ratio(u(r.cache_hits), u(r.cache_lookups)),
       "ratio"},
      {"cache.hits", u(m.cache.hits), "count"},
      {"cache.misses", u(m.cache.misses), "count"},
      {"cache.write_hits", u(m.write.write_hits), "count"},
      {"cache.dirty_installed", u(m.write.dirty_installed), "count"},
      {"cache.write_backs", u(m.write.write_backs), "count"},
      {"cache.evicted_dirty", u(m.write.evicted_dirty), "count"},
      {"cache.lost_dirty", u(m.write.lost_dirty), "count"},
      {"codes.encode_s", span_seconds(rec, "codes.encode"), "s"},
      {"codes.fold_s", fold_s, "s"},
      {"codes.fold_bytes", u(r.fold_bytes), "B"},
      {"codes.fold_gibps",
       ratio(u(r.fold_bytes), fold_s * 1024.0 * 1024.0 * 1024.0), "GiB/s"},
      {"codes.decode_s", span_seconds(rec, "codes.decode"), "s"},
      {"sim.setup_s",
       span_seconds(rec, "sim.geometry") +
           span_seconds(rec, "sim.engine_construct"),
       "s"},
      {"sim.run_s", run_s, "s"},
      {"sim.events", u(m.engine_events), "count"},
      {"sim.events_per_stripe",
       ratio(u(m.engine_events), u(m.stripes_recovered)), "count"},
      {"sim.ns_per_event", ratio(run_s * 1e9, u(m.engine_events)), "ns"},
      {"sim.disk_reads", u(m.disk_reads), "count"},
      {"sim.planned_disk_reads", u(m.planned_disk_reads), "count"},
      {"sim.miss_reads", u(m.cache.misses), "count"},
      {"sim.retry_reads", u(m.fault.retries), "count"},
      {"sim.disk_writes", u(m.disk_writes), "count"},
      {"sim.spare_writes", u(m.write.spare_writes), "count"},
      {"sim.read_response_ms", m.response_ms.mean(), "ms"},
      {"sim.disk_busy_max_over_mean", ratio(busy_max * disks, busy_sum),
       "ratio"},
      {"sim.disk_ops_max_over_mean", ratio(u(ops_max) * disks, u(ops_sum)),
       "ratio"},
      {"sim.disks_active", u(active), "count"},
      {"sim.event_queue_regrowths", u(m.event_queue_regrowths), "count"},
      {"fg.app_served", u(m.app_served), "count"},
      {"fg.parked_drained", u(m.app_parked_drained), "count"},
      {"fg.degraded_reads", u(m.app_degraded_reads), "count"},
      {"fg.degraded_writes", u(m.app_degraded_writes), "count"},
      {"fg.reconstructed_reads", u(m.app_reconstructed_reads), "count"},
      {"fg.app_read_hits", u(m.write.app_read_hits), "count"},
      {"faults.retries", u(m.fault.retries), "count"},
      {"faults.dead_disk_reads", u(m.fault.dead_disk_reads), "count"},
      {"faults.replans", u(m.fault.replans), "count"},
      {"faults.gauss_fallbacks", u(m.fault.gauss_fallbacks), "count"},
      {"faults.escalated_stripes", u(m.fault.escalated_stripes), "count"},
      {"faults.extra_lost_chunks", u(m.fault.extra_lost_chunks), "count"},
      {"faults.respared", u(m.fault.respared), "count"},
      {"obs.export_s", span_seconds(rec, "obs.export"), "s"},
      {"obs.metrics_bytes", u(p.metrics_bytes), "B"},
      {"self.workload_s", self_of("workload"), "s"},
      {"self.recovery_s", self_of("recovery"), "s"},
      {"self.cache_s", self_of("cache"), "s"},
      {"self.codes_s", self_of("codes"), "s"},
      {"self.sim_s", self_of("sim"), "s"},
      {"self.obs_s", self_of("obs"), "s"},
      {"self.bench_s", self_of("bench"), "s"},
      {"trace.wall_s", p.wall_s, "s"},
      {"trace.coverage", ratio(layers_s, p.wall_s), "ratio"},
  };
}

/// Counted per-layer metrics: must repeat bit for bit for a seed.
bool is_count(const Metric& m) {
  return m.unit == "count" || m.unit == "B" ||
         m.name == "cache.replay_hit_ratio";
}

constexpr int kMaxTracedPairs = 100;

Outcome run_traced(const Args& args) {
  // The traced passes replay instance 0 of the timed runs.
  const fbf::core::ExperimentConfig cfg =
      workload_config(args.workload, args.size, instance_seed(args.seed, 0));
  Outcome out;
  std::vector<double> untraced_wall;
  std::map<std::string, std::vector<double>> samples;
  std::vector<Metric> first;
  SpanRecorder last;
  const auto start = Clock::now();
  for (int i = 0; i < kMaxTracedPairs &&
                  (i == 0 || seconds_since(start) < args.seconds);
       ++i) {
    const Pass untraced = run_pass(args, cfg, nullptr);
    untraced_wall.push_back(untraced.wall_s);
    out.add_gate(untraced.gate);
    SpanRecorder rec;
    const Pass p = run_pass(args, cfg, &rec);
    out.add_gate(p.gate);
    if (p.replay.byte_mismatches > 0) {
      out.failed += p.replay.byte_mismatches;
      out.fail("codes replay: " + std::to_string(p.replay.byte_mismatches) +
               " rebuilt chunks differ from the encoded truth");
    }
    std::vector<Metric> metrics = layer_metrics(p, rec);
    if (first.empty()) {
      first = metrics;
      Record counts;
      for (const Metric& m : metrics) {
        if (is_count(m)) {
          counts.emplace_back(m.name, m.value);
        }
      }
      if (p.gate.error.empty()) {
        out.fail(check_stored(args, "sim0",
                              simulated_record(p.m, p.app_issued)));
      }
      out.fail(check_stored(args, "counts", counts));
    }
    for (std::size_t k = 0; k < metrics.size(); ++k) {
      if (is_count(metrics[k]) &&
          std::bit_cast<std::uint64_t>(metrics[k].value) !=
              std::bit_cast<std::uint64_t>(first[k].value)) {
        out.fail("determinism gate: " + metrics[k].name +
                 " differs between traced passes");
      }
      samples[metrics[k].name].push_back(metrics[k].value);
    }
    last = std::move(rec);
  }

  // Host times are medians over the traced passes; counts repeat exactly.
  out.metrics = first;
  for (Metric& m : out.metrics) {
    m.value = median(samples[m.name]);
  }
  out.metrics.push_back({"trace.overhead_s",
                         median(samples["trace.wall_s"]) -
                             median(untraced_wall),
                         "s"});
  const double coverage = median(samples["trace.coverage"]);
  if (std::abs(1.0 - coverage) > kCoverageTolerance) {
    out.fail("trace coverage " + format_value(coverage) +
             " is outside 1 +/- " + format_value(kCoverageTolerance));
  }

  const std::string kernel(
      fbf::codes::to_string(fbf::codes::active_xor_kernel()));
  std::cout << "codes.kernel: " << kernel << "\n";
  if (!args.trace_out.empty()) {
    const std::filesystem::path path(args.trace_out);
    if (path.has_parent_path()) {
      std::filesystem::create_directories(path.parent_path());
    }
    std::ofstream os(path);
    last.write_chrome_json(os, {{"workload", args.workload},
                                {"seed", std::to_string(args.seed)},
                                {"codes.kernel", kernel}});
    std::cout << "chrome trace: " << path.string() << "\n";
  }
  return out;
}

void print(const Args& args, const Outcome& out) {
  std::cout << args.workload << " seed " << args.seed
            << (args.trace == 1 ? " (traced)" : "") << "\n";
  for (const Metric& m : out.metrics) {
    std::cout << "  " << m.name << " = " << format_value(m.value) << " "
              << m.unit << "\n";
  }
  for (const std::string& e : out.errors) {
    std::cout << "GATE FAILED: " << e << "\n";
  }
  std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << format_value(v) << ", \"unit\": \""
              << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) {
  using namespace layerbench;
  Args args;
  try {
    args = parse_args(argc, argv);
    workload_config(args.workload, args.size, args.seed);
  } catch (const std::exception& e) {
    std::cerr << "layerbench: " << e.what() << "\n";
    return 2;
  }
  Outcome out;
  try {
    out = args.trace == 1 ? run_traced(args) : run_timed(args);
  } catch (const std::exception& e) {
    std::cerr << "layerbench: " << e.what() << "\n";
    return 1;
  }
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.fail(m.name + " is not a finite number");
    }
  }
  print(args, out);
  return out.correct() ? 0 : 1;
}
