#include "workloads.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "codes/builders.h"
#include "obs/observer.h"
#include "sim/validate.h"
#include "util/check.h"

namespace layerbench {

namespace fc = fbf::core;
namespace fs = fbf::sim;

namespace {

/// Read-mostly open-loop foreground probe for the two rebuild workloads:
/// Poisson arrivals over the whole rebuild on the legacy synchronous
/// write path, so the app metrics measure what a user sees during the
/// rebuild without adding a write cache to the model. The array is made
/// 16x larger than the default so damaged stripes are sparse: a probe
/// request almost never lands on a lost chunk, whose response would be
/// the wait for its stripe's rebuild (hundreds of seconds) and would make
/// the mean a lottery over the Zipf hot spots.
void add_probe(fc::ExperimentConfig& c, int requests, double deadline_ms) {
  c.num_stripes = 1ull << 24;
  c.app_requests = requests;
  c.app_mean_interarrival_ms = 250.0;
  c.app_read_fraction = 0.9;
  c.app_deadline_ms = deadline_ms;
}

}  // namespace

fc::ExperimentConfig workload_config(const std::string& name, Size size,
                                     std::uint64_t seed) {
  const bool full = size == Size::Full;
  fc::ExperimentConfig c;
  c.code = fbf::codes::CodeId::Tip;
  c.policy = fbf::cache::PolicyId::Fbf;
  c.scheme = fbf::recovery::SchemeKind::RoundRobin;
  c.cache_bytes = 64ull << 20;
  c.error_col = 0;
  c.seed = seed;
  if (name == "rebuild_sor_verify") {
    c.engine = fc::EngineKind::Sor;
    c.p = 11;
    c.workers = 128;
    c.verify_data = true;
    c.num_errors = full ? 10000 : 60;
    add_probe(c, full ? 1800 : 40, 100.0);
  } else if (name == "rebuild_dor_stream") {
    c.engine = fc::EngineKind::Dor;
    c.p = 17;
    c.num_errors = full ? 8000 : 40;
    add_probe(c, full ? 14000 : 40, 20.0);
  } else if (name == "online_degraded_write") {
    c.engine = fc::EngineKind::Sor;
    c.p = 7;
    c.num_errors = full ? 2000 : 40;
    c.app_requests = full ? 10000 : 200;
    c.app_mean_interarrival_ms = 100.0;
    c.app_read_fraction = 0.7;
    c.app_rewrite_fraction = 0.3;
    c.app_deadline_ms = 30.0;
    c.write_cache_chunks = 256;
    c.write_flush_ms = 50.0;
    c.recovery_throttle.rebuild_reads_per_sec = 100.0;
    c.faults.disk_failure_times_ms = {full ? 100000.0 : 5000.0};
    c.faults.transient_rate = 0.01;
    c.faults.stragglers = 1;
    c.faults.straggler_factor = 2.0;
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  return c;
}

// Mirrors the engine-config derivation in core::run_experiment; the
// cross-check in every timed run fails if the two drift apart.
fs::ReconstructionConfig sor_config(const fc::ExperimentConfig& c) {
  fs::ReconstructionConfig rc;
  rc.scheme = c.scheme;
  rc.policy = c.policy;
  rc.cache_bytes = c.cache_bytes;
  rc.chunk_bytes = c.chunk_bytes;
  rc.workers = c.workers;
  rc.cache_access_ms = c.cache_access_ms;
  rc.xor_ms_per_chunk = c.xor_ms_per_chunk;
  rc.disk.kind = c.disk_model;
  rc.disk.read_ms = c.disk_access_ms;
  rc.disk.write_ms = c.disk_access_ms;
  rc.memoize_schemes = c.memoize_schemes;
  rc.verify_data = c.verify_data;
  rc.seed = c.seed;
  rc.faults = c.faults;
  rc.throttle = c.recovery_throttle;
  rc.write.cache_chunks = c.write_cache_chunks;
  rc.write.flush_interval_ms = c.write_flush_ms;
  rc.write.retain_favorable = c.write_retain_favorable;
  rc.write.policy = c.policy;
  rc.write.cache_access_ms = c.cache_access_ms;
  return rc;
}

fs::DorConfig dor_config(const fc::ExperimentConfig& c) {
  const fs::ReconstructionConfig rc = sor_config(c);
  fs::DorConfig dc;
  dc.scheme = rc.scheme;
  dc.policy = rc.policy;
  dc.cache_bytes = rc.cache_bytes;
  dc.chunk_bytes = rc.chunk_bytes;
  dc.cache_access_ms = rc.cache_access_ms;
  dc.xor_ms_per_chunk = rc.xor_ms_per_chunk;
  dc.disk = rc.disk;
  dc.seed = rc.seed;
  dc.faults = rc.faults;
  dc.throttle = rc.throttle;
  dc.write = rc.write;
  return dc;
}

namespace {

std::vector<fbf::workload::StripeError> error_trace(
    const fbf::codes::Layout& layout, const fc::ExperimentConfig& c) {
  fbf::workload::ErrorTraceConfig t;
  t.num_stripes = c.num_stripes;
  t.num_errors = c.num_errors;
  t.target_col = c.error_col;
  t.spatial_locality = c.spatial_locality;
  t.seed = c.seed;
  return fbf::workload::generate_error_trace(layout, t);
}

std::vector<fbf::workload::AppRequest> app_trace(
    const fbf::codes::Layout& layout, const fc::ExperimentConfig& c) {
  if (c.app_requests <= 0) {
    return {};
  }
  fbf::workload::AppTraceConfig a;
  a.num_stripes = c.num_stripes;
  a.num_requests = c.app_requests;
  a.mean_interarrival_ms = c.app_mean_interarrival_ms;
  a.read_fraction = c.app_read_fraction;
  a.deadline_ms = c.app_deadline_ms;
  a.rewrite_fraction = c.app_rewrite_fraction;
  a.seed = c.seed ^ 0xa99ull;  // run_experiment's app-trace seed
  return fbf::workload::generate_app_trace(layout, a);
}

}  // namespace

PreparedRun::PreparedRun(const fc::ExperimentConfig& c, bool corrupt_trace,
                         SpanRecorder* rec)
    : config(c),
      layout(spanned(rec, "codes.make_layout",
                     [&] { return fbf::codes::make_layout(c.code, c.p); })),
      geometry(spanned(rec, "sim.geometry",
                       [&] {
                         return fs::ArrayGeometry(
                             layout, c.num_stripes, c.layout_strategy,
                             c.pool_disks, c.spare_placement);
                       })),
      errors(spanned(rec, "workload.error_trace",
                     [&] { return error_trace(layout, c); })),
      app(spanned(rec, "workload.app_trace",
                  [&] { return app_trace(layout, c); })) {
  if (corrupt_trace) {
    fed_.assign(errors.begin(), errors.end() - 1);
  }
  ScopedSpan span(rec, "sim.engine_construct");
  if (c.engine == fc::EngineKind::Dor) {
    dor_ = std::make_unique<fs::DorEngine>(layout, geometry, dor_config(c));
  } else {
    sor_ = std::make_unique<fs::ReconstructionEngine>(layout, geometry,
                                                      sor_config(c));
  }
}

fs::SimMetrics PreparedRun::run(SpanRecorder* rec) {
  FBF_CHECK(sor_ != nullptr || dor_ != nullptr, "PreparedRun ran twice");
  const auto& fed = fed_.empty() ? errors : fed_;
  ScopedSpan span(rec, "sim.run");
  fs::SimMetrics m =
      sor_ != nullptr ? sor_->run(fed, app) : dor_->run(fed, app);
  sor_.reset();
  dor_.reset();
  return m;
}

std::size_t export_metrics(const fc::ExperimentConfig& config,
                           const fs::SimMetrics& m) {
  fbf::obs::RunObserver observer(fbf::obs::TraceLevel::Off);
  fs::record_run(&observer, fc::obs_run_label(config), m, nullptr);
  return observer.metrics_json(/*include_wall=*/false).size();
}

GateResult gate(const PreparedRun& run, const fs::SimMetrics* m,
                const std::string& run_error) {
  GateResult g;
  const std::uint64_t issued = run.app.size();
  if (m == nullptr) {
    g.attempted = run.errors.size() + issued;
    g.failed = g.attempted;
    g.error = run_error;
    return g;
  }
  const std::uint64_t stripes =
      run.errors.size() + m->fault.escalated_stripes;
  const std::uint64_t answered = m->app_served + m->app_parked_drained;
  g.attempted = stripes + issued;
  g.failed = (stripes - std::min(stripes, m->stripes_recovered)) +
             (issued - std::min(issued, answered));
  try {
    fs::validate_run(*m, run.errors);
    FBF_CHECK(m->app_requests == issued,
              "engine saw " + std::to_string(m->app_requests) +
                  " app requests, trace issued " + std::to_string(issued));
  } catch (const fbf::util::CheckError& e) {
    g.error = e.what();
    g.failed = std::max<std::uint64_t>(g.failed, 1);
  }
  if (g.failed > 0 && g.error.empty()) {
    g.error = std::to_string(g.failed) + " operations not completed";
  }
  return g;
}

namespace {

double disk_reads_per_stripe(const fs::SimMetrics& m) {
  return m.stripes_recovered == 0
             ? 0.0
             : static_cast<double>(m.disk_reads) /
                   static_cast<double>(m.stripes_recovered);
}

/// Requests that finished late or were never answered, over all issued.
double deadline_miss_ratio(const fs::SimMetrics& m, std::size_t issued) {
  if (issued == 0) {
    return 0.0;
  }
  const std::uint64_t answered = m.app_served + m.app_parked_drained;
  const std::uint64_t unserved = issued - std::min<std::uint64_t>(issued,
                                                                  answered);
  return static_cast<double>(m.app_deadline_miss + unserved) /
         static_cast<double>(issued);
}

}  // namespace

Record simulated_record(const fs::SimMetrics& m, std::size_t app_issued) {
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  Record r{
      {"rebuild_s", m.reconstruction_ms / 1000.0},
      {"disk_reads_per_stripe", disk_reads_per_stripe(m)},
      {"hit_ratio", m.hit_ratio()},
      {"app_mean_ms", m.app_response_ms.mean()},
      {"deadline_miss_ratio", deadline_miss_ratio(m, app_issued)},
      {"read_response_ms", m.response_ms.mean()},
      {"stripes_recovered", u(m.stripes_recovered)},
      {"chunks_recovered", u(m.chunks_recovered)},
      {"total_chunk_requests", u(m.total_chunk_requests)},
      {"cache_hits", u(m.cache.hits)},
      {"cache_misses", u(m.cache.misses)},
      {"cache_evictions", u(m.cache.evictions)},
      {"disk_reads", u(m.disk_reads)},
      {"planned_disk_reads", u(m.planned_disk_reads)},
      {"disk_writes", u(m.disk_writes)},
      {"schemes_generated", u(m.schemes_generated)},
      {"scheme_cache_hits", u(m.scheme_cache_hits)},
      {"engine_events", u(m.engine_events)},
      {"event_queue_regrowths", u(m.event_queue_regrowths)},
      {"app_requests", u(m.app_requests)},
      {"app_served", u(m.app_served)},
      {"app_parked_drained", u(m.app_parked_drained)},
      {"app_degraded_reads", u(m.app_degraded_reads)},
      {"app_degraded_writes", u(m.app_degraded_writes)},
      {"app_deadline_miss", u(m.app_deadline_miss)},
      {"app_reconstructed_reads", u(m.app_reconstructed_reads)},
      {"write.spare_writes", u(m.write.spare_writes)},
      {"write.rmw_plans", u(m.write.rmw_plans)},
      {"write.rcw_plans", u(m.write.rcw_plans)},
      {"write.direct_plans", u(m.write.direct_plans)},
      {"write.plan_disk_reads", u(m.write.plan_disk_reads)},
      {"write.app_read_hits", u(m.write.app_read_hits)},
      {"write.parity_updates", u(m.write.parity_updates)},
      {"write.dirty_installed", u(m.write.dirty_installed)},
      {"write.write_backs", u(m.write.write_backs)},
      {"write.evicted_dirty", u(m.write.evicted_dirty)},
      {"write.lost_dirty", u(m.write.lost_dirty)},
      {"write.write_hits", u(m.write.write_hits)},
      {"fault.retries", u(m.fault.retries)},
      {"fault.dead_disk_reads", u(m.fault.dead_disk_reads)},
      {"fault.replans", u(m.fault.replans)},
      {"fault.gauss_fallbacks", u(m.fault.gauss_fallbacks)},
      {"fault.escalated_stripes", u(m.fault.escalated_stripes)},
      {"fault.extra_lost_chunks", u(m.fault.extra_lost_chunks)},
      {"fault.respared", u(m.fault.respared)},
  };
  for (std::size_t d = 0; d < m.disk_busy_ms.size(); ++d) {
    r.emplace_back("disk_busy_ms." + std::to_string(d), m.disk_busy_ms[d]);
  }
  for (std::size_t d = 0; d < m.disk_ops.size(); ++d) {
    r.emplace_back("disk_ops." + std::to_string(d), u(m.disk_ops[d]));
  }
  return r;
}

std::string cross_check(const fc::ExperimentResult& r,
                        const fs::SimMetrics& m) {
  const std::pair<const char*, bool> checks[] = {
      {"hit_ratio", r.hit_ratio == m.hit_ratio()},
      {"cache_hits", r.cache_hits == m.cache.hits},
      {"cache_misses", r.cache_misses == m.cache.misses},
      {"disk_reads", r.disk_reads == m.disk_reads},
      {"disk_writes", r.disk_writes == m.disk_writes},
      {"avg_response_ms", r.avg_response_ms == m.response_ms.mean()},
      {"reconstruction_ms", r.reconstruction_ms == m.reconstruction_ms},
      {"schemes_generated", r.schemes_generated == m.schemes_generated},
      {"stripes_recovered", r.stripes_recovered == m.stripes_recovered},
      {"chunks_recovered", r.chunks_recovered == m.chunks_recovered},
      {"total_chunk_requests",
       r.total_chunk_requests == m.total_chunk_requests},
      {"app_avg_response_ms",
       r.app_avg_response_ms == m.app_response_ms.mean()},
      {"app_served", r.app_served == m.app_served},
      {"app_parked_drained", r.app_parked_drained == m.app_parked_drained},
      {"app_deadline_miss", r.app_deadline_miss == m.app_deadline_miss},
      {"fault.replans", r.fault.replans == m.fault.replans},
      {"fault.retries", r.fault.retries == m.fault.retries},
      {"fault.escalated_stripes",
       r.fault.escalated_stripes == m.fault.escalated_stripes},
      {"write.parity_updates", r.write.parity_updates == m.write.parity_updates},
      {"write.dirty_installed",
       r.write.dirty_installed == m.write.dirty_installed},
  };
  for (const auto& [name, same] : checks) {
    if (!same) {
      return std::string("run_experiment disagrees with the direct engine "
                         "run on ") + name;
    }
  }
  return {};
}

}  // namespace layerbench
