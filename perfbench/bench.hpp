// Shared declarations of the repository benchmark (perfbench/).
//
// A workload is a list of operations — one die plus one FlowConfig each —
// generated from the benchmark seed before anything is timed. An untraced
// pass runs every operation through the public library API exactly as a
// user would (run_campaign, or run_flow for a single die); the traced pass
// replays each operation call by call through the layers' public functions
// and times every call from outside (probe.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "gen/generator.hpp"
#include "runner/campaign.hpp"

namespace wcm::bench {

/// One flow over one die: a campaign job, or the whole scale_100k workload.
struct Operation {
  std::string label;  ///< "<die>/<method>/<scenario>", as `wcm3d campaign` names jobs
  DieSpec spec;       ///< the seed-adjusted spec the die was generated from
  std::shared_ptr<const Netlist> die;
  FlowConfig config;
  bool tight = false;
};

struct Workload {
  std::string name;
  std::vector<Operation> ops;
  /// true: the ops run as one run_campaign; false: one run_flow per op.
  bool campaign = true;
  int width = 1;  ///< campaign workers and solve/ATPG threads
};

/// The names `--workload` accepts, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Generates the workload's dies from `seed` (0 = the dies exactly as
/// authored) and builds every operation's config. `smoke` shrinks each
/// workload to a few seconds of work for the benchmark's own check.
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke, int width);

/// One untraced pass over every operation.
struct Pass {
  CampaignResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process user + system time spent in the pass
};
Pass run_pass(const Workload& w);

/// Plan and ATPG quality of one pass, plus its correctness verdict.
struct PassSummary {
  int attempted = 0;
  int failed = 0;  ///< job errors + plans check_plan rejects
  long additional_cells = 0;
  long reused_ffs = 0;
  int tight_violations = 0;  ///< proposed/tight jobs failing signoff
  double sa_test_coverage = 0.0;  ///< mean over jobs that ran stuck-at ATPG
  long sa_patterns = 0;
  long tdf_patterns = 0;
  std::uint64_t digest = 0;  ///< FNV-1a over every job's flow_report_signature
  std::vector<std::string> errors;
};
PassSummary summarize(const Workload& w, const Pass& pass);

/// Per-layer metrics of one traced pass, keyed by BENCHMARK.json name.
struct LayerMetric {
  double value = 0.0;
  const char* unit = "";
};
using LayerMetrics = std::map<std::string, LayerMetric>;

/// Replays every operation layer by layer (probe.cpp). `reference` is an
/// untraced pass over the same workload: the probe cross-checks its
/// first-phase graph against each reference report and appends one message
/// per mismatch to `mismatches`.
LayerMetrics run_traced_pass(const Workload& w, const Pass& reference,
                             std::vector<std::string>& mismatches);

double seconds_since_epoch_steady();
double process_cpu_seconds();

}  // namespace wcm::bench
