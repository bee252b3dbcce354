// Workload definitions and the fbfsim-shaped run the benchmark times:
// setup (layout, geometry, error and app traces, engine construction),
// then the engine run and the metrics export.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codes/layout.h"
#include "core/experiment.h"
#include "sim/array_geometry.h"
#include "sim/dor_engine.h"
#include "sim/metrics.h"
#include "sim/reconstruction.h"
#include "spans.h"
#include "workload/app_trace.h"
#include "workload/errors.h"

namespace layerbench {

/// Full size is what the benchmark measures; smoke size is the tiny shape
/// the self-test runs.
enum class Size { Full, Smoke };

/// The workload's experiment configuration with `seed` as its seed.
/// Throws std::invalid_argument for an unknown name.
fbf::core::ExperimentConfig workload_config(const std::string& name,
                                            Size size, std::uint64_t seed);

/// The engine configurations run_experiment derives from an
/// ExperimentConfig; the cross-check pins that this mapping matches.
fbf::sim::ReconstructionConfig sor_config(const fbf::core::ExperimentConfig& c);
fbf::sim::DorConfig dor_config(const fbf::core::ExperimentConfig& c);

/// Everything before the first simulated event. Not copyable or movable:
/// the geometry and the engine point at the layout member.
class PreparedRun {
 public:
  /// With `corrupt_trace` the engine is fed the trace minus its last
  /// stripe while the correctness gate still checks against the full
  /// trace (the self-test's deliberately broken input).
  PreparedRun(const fbf::core::ExperimentConfig& config, bool corrupt_trace,
              SpanRecorder* rec);
  PreparedRun(const PreparedRun&) = delete;
  PreparedRun& operator=(const PreparedRun&) = delete;

  /// Runs the engine once (an engine's scheme memo makes a second run
  /// differ, so each PreparedRun runs exactly once).
  fbf::sim::SimMetrics run(SpanRecorder* rec);

  const fbf::core::ExperimentConfig config;
  const fbf::codes::Layout layout;
  const fbf::sim::ArrayGeometry geometry;
  const std::vector<fbf::workload::StripeError> errors;
  const std::vector<fbf::workload::AppRequest> app;

 private:
  std::vector<fbf::workload::StripeError> fed_;  ///< only when corrupted
  std::unique_ptr<fbf::sim::ReconstructionEngine> sor_;
  std::unique_ptr<fbf::sim::DorEngine> dor_;
};

/// record_run into a fresh observer plus the deterministic metrics
/// document, as fbfsim's --metrics-out does. Returns the document size.
std::size_t export_metrics(const fbf::core::ExperimentConfig& config,
                           const fbf::sim::SimMetrics& m);

/// Correctness gate over one run. Operations are the stripes to recover
/// (traced plus escalated) and the app requests issued; `m` is null when
/// the run threw (a verification mismatch or an escalation abort), in
/// which case every operation of the run counts as failed.
struct GateResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;  ///< first violated check, empty when clean
};
GateResult gate(const PreparedRun& run, const fbf::sim::SimMetrics* m,
                const std::string& run_error);

/// Every simulated quantity of a run, in a fixed order: the end-to-end
/// simulated metrics plus the engine's counters. Same seed, same record,
/// bit for bit.
using Record = std::vector<std::pair<std::string, double>>;
Record simulated_record(const fbf::sim::SimMetrics& m, std::size_t app_issued);

/// Compares run_experiment's result on the same config with the direct
/// engine run's metrics; returns the first disagreement, empty if none.
std::string cross_check(const fbf::core::ExperimentResult& r,
                        const fbf::sim::SimMetrics& m);

}  // namespace layerbench
