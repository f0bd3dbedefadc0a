// Workload inputs, the untraced pass and its correctness summary.
#include <sys/resource.h>

#include <chrono>
#include <exception>
#include <stdexcept>

#include "bench.hpp"
#include "dft/insertion.hpp"
#include "runner/scenario.hpp"
#include "runner/seeds.hpp"

namespace wcm::bench {
namespace {

/// What a non-zero benchmark seed re-draws. Seed 0 always keeps the dies,
/// placements and pattern streams exactly as authored (Table II).
enum class SeedScope {
  /// Every die gets its own derived generator stream: a new netlist per die.
  kDies,
  /// The dies stay as authored; each job's verification ATPG gets a derived
  /// pattern seed. For the small measured-oracle dies, whose solve cost and
  /// plan swing several-fold with die structure, so runs stay comparable.
  kAtpgPatterns,
  /// The dies stay as authored; each job's placement gets a derived seed,
  /// which moves wire loads, slacks and so the timing-admitted edges. For
  /// the Table II campaign, whose pass cost moved by a quarter between
  /// re-drawn die sets, so runs stay comparable.
  kPlacement,
};

/// bench/perf_scale's die shape: 1 flop per 200 gates, 1 TSV per 100 gates
/// in each direction, 16 primary inputs and outputs.
DieSpec scale_spec(int gates) {
  DieSpec spec;
  spec.name = "scale" + std::to_string(gates);
  spec.num_gates = gates;
  spec.num_scan_ffs = gates / 200;
  spec.num_inbound = gates / 100;
  spec.num_outbound = gates / 100;
  spec.num_pis = 16;
  spec.num_pos = 16;
  spec.seed = 0x5CA1EULL ^ static_cast<std::uint64_t>(gates);
  return spec;
}

/// One op per (die, scenario): area before tight, as `wcm3d campaign
/// --scenario both` orders its sweep.
void add_sweep(Workload& w, const std::vector<DieSpec>& dies, std::uint64_t seed,
               SeedScope scope, ScenarioSpec base, bool area, bool tight) {
  for (std::size_t i = 0; i < dies.size(); ++i) {
    DieSpec spec = dies[i];
    if (seed != 0 && scope == SeedScope::kDies)
      spec.seed ^= derive_job_seeds(seed, i).generator;
    const auto die = std::make_shared<const Netlist>(generate_die(spec));
    for (const bool is_tight : {false, true}) {
      if (is_tight ? !tight : !area) continue;
      base.tight = is_tight;
      Operation op;
      op.label = dies[i].name + "/" + base.method + "/" + scenario_name(base);
      op.spec = spec;
      op.die = die;
      op.config = make_scenario_config(base);
      op.config.wcm.solve_threads = w.width;
      op.config.atpg.threads = w.width;
      if (seed != 0 && scope == SeedScope::kAtpgPatterns)
        op.config.atpg.seed ^= derive_job_seeds(seed, w.ops.size()).atpg;
      if (seed != 0 && scope == SeedScope::kPlacement)
        op.config.place.seed ^= derive_job_seeds(seed, w.ops.size()).place;
      op.tight = is_tight;
      w.ops.push_back(std::move(op));
    }
  }
}

/// Table II dies whose name starts with one of `circuits`, in paper order.
std::vector<DieSpec> dies_of(const std::vector<std::string>& circuits) {
  std::vector<DieSpec> dies;
  for (const DieSpec& spec : itc99_all_dies())
    for (const std::string& circuit : circuits)
      if (spec.name.rfind(circuit, 0) == 0) dies.push_back(spec);
  return dies;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames{"itc99_campaign", "measured_atpg",
                                               "scale_100k"};
  return kNames;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke, int width) {
  Workload w;
  w.name = name;
  w.width = width;
  ScenarioSpec base;
  base.method = "proposed";
  if (name == "itc99_campaign") {
    // All 24 Table II dies x {area, tight}, structural oracle, no ATPG.
    add_sweep(w, smoke ? dies_of({"b11"}) : itc99_all_dies(), seed, SeedScope::kPlacement,
              base, true, true);
  } else if (name == "measured_atpg") {
    // The small-circuit set x {area, tight}, measured incremental oracle,
    // stuck-at + transition verification.
    base.with_atpg = true;
    base.oracle = "measured";
    std::vector<DieSpec> dies = dies_of({"b11", "b12"});
    if (smoke) dies.resize(1);
    add_sweep(w, dies, seed, SeedScope::kAtpgPatterns, base, true, true);
  } else if (name == "scale_100k") {
    // One 10^5-gate die, proposed/area, structural oracle, no ATPG.
    w.campaign = false;
    add_sweep(w, {scale_spec(smoke ? 10000 : 100000)}, seed, SeedScope::kDies, base, true,
              false);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

double seconds_since_epoch_steady() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

Pass run_pass(const Workload& w) {
  Pass pass;
  const double cpu0 = process_cpu_seconds();
  const double t0 = seconds_since_epoch_steady();
  if (w.campaign) {
    Campaign campaign;
    for (const Operation& op : w.ops) campaign.add(op.die, op.config, op.label);
    CampaignOptions opts;
    opts.jobs = w.width;
    pass.result = run_campaign(campaign, opts);
  } else {
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      const Operation& op = w.ops[i];
      JobResult job;
      job.index = i;
      job.label = op.label;
      job.die_name = op.die->name();
      const double j0 = seconds_since_epoch_steady();
      try {
        job.report = run_flow(*op.die, op.config);
        job.ok = true;
      } catch (const std::exception& e) {
        job.error = e.what();
      }
      job.total_ms = (seconds_since_epoch_steady() - j0) * 1e3;
      pass.result.jobs.push_back(std::move(job));
    }
    pass.result.metrics.workers = 1;
  }
  pass.wall_s = seconds_since_epoch_steady() - t0;
  pass.cpu_s = process_cpu_seconds() - cpu0;
  return pass;
}

PassSummary summarize(const Workload& w, const Pass& pass) {
  PassSummary s;
  s.digest = 0xcbf29ce484222325ULL;
  int sa_jobs = 0;
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const Operation& op = w.ops[i];
    ++s.attempted;
    const JobResult& job = pass.result.jobs.at(i);
    if (!job.ok) {
      ++s.failed;
      s.errors.push_back(op.label + ": " + job.error);
      s.digest = fnv1a(s.digest, op.label + "!" + job.error);
      continue;
    }
    const FlowReport& r = job.report;
    const std::vector<std::string> problems = check_plan(*op.die, r.solution.plan);
    if (!problems.empty()) {
      ++s.failed;
      s.errors.push_back(op.label + ": check_plan: " + problems.front());
    }
    s.additional_cells += r.solution.additional_cells;
    s.reused_ffs += r.solution.reused_ffs;
    if (op.tight && r.timing_violation) ++s.tight_violations;
    if (op.config.run_stuck_at) {
      s.sa_test_coverage += r.stuck_at.test_coverage();
      s.sa_patterns += r.stuck_at.patterns;
      ++sa_jobs;
    }
    if (op.config.run_transition) s.tdf_patterns += r.transition.patterns;
    s.digest = fnv1a(s.digest, op.label + "=" + flow_report_signature(r));
  }
  if (sa_jobs > 0) s.sa_test_coverage /= sa_jobs;
  return s;
}

}  // namespace wcm::bench
