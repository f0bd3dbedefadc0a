// wcmbench: the repository benchmark. One workload per process:
//
//   wcmbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//            [--git-sha SHA]
//
// Set-up generates the workload's dies from the seed and runs a discarded
// warm-up on the smoke-sized variant (five rounds; the median counts). Then
// untraced passes repeat while the next one should still end within S
// seconds, at least two (--trace 0, end-to-end metrics); or one untraced
// reference pass is followed by traced passes under the same rule, at least
// one (--trace 1, per-layer metrics). Every pass is checked:
// each job ok, check_plan clean, no proposed/tight signoff violation, and
// the same report digest on every repetition. The last stdout line is one
// JSON object; the exit code is non-zero when any check failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/rss.hpp"
#include "util/simd.hpp"

#ifndef WCM_BENCH_BUILD_TYPE
#define WCM_BENCH_BUILD_TYPE "unknown"
#endif

namespace wcm::bench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr, "wcmbench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: wcmbench --workload <itc99_campaign|measured_atpg|scale_100k> "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--git-sha SHA]\n");
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text, std::uint64_t max) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (text.empty() || used != text.size() || text[0] == '-' || v > max)
    usage("bad value '" + text + "' for " + flag);
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload")
      a.workload = value;
    else if (flag == "--seed")
      a.seed = parse_u64(flag, value, ~0ULL);
    else if (flag == "--seconds")
      a.seconds = static_cast<int>(parse_u64(flag, value, 3600));
    else if (flag == "--trace")
      a.trace = parse_u64(flag, value, 1) == 1;
    else if (flag == "--git-sha")
      a.git_sha = value;
    else
      usage("unknown flag " + flag);
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage("unknown workload '" + a.workload + "'");
  return a;
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_sample(const char* name, const std::vector<double>& v, const char* unit) {
  std::printf("  %-26s %12.6f %-5s (median; q1 %.6f, q3 %.6f, n=%zu)\n", name,
              quantile(v, 0.5), unit, quantile(v, 0.25), quantile(v, 0.75), v.size());
}

void print_result(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

int run(const Args& args) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int width = static_cast<int>(std::min(4u, hw));
  std::printf("wcmbench: workload %s, seed %llu%s, %d s, trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.smoke ? " (smoke)" : "",
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: nproc %u, width %d, simd %s, build %s, git %s\n", hw, width,
              simd::isa_name(simd::active()), WCM_BENCH_BUILD_TYPE, args.git_sha.c_str());

  // ---- set-up, five times (the median counts): generate the inputs, then a
  // discarded warm-up that runs the workload's smoke-sized variant through
  // the same code, so pools, SIMD dispatch and allocator arenas start before
  // timing without the cost of a full pass ----
  Workload w;
  PassSummary warm;
  std::vector<double> setup_rounds;
  for (int round = 0; round < 5; ++round) {
    w = Workload{};
    const double t0 = seconds_since_epoch_steady();
    w = make_workload(args.workload, args.seed, args.smoke, width);
    const Workload smoke = make_workload(args.workload, args.seed, true, width);
    warm = summarize(smoke, run_pass(smoke));
    setup_rounds.push_back(seconds_since_epoch_steady() - t0);
  }
  const double setup_s = quantile(setup_rounds, 0.5);
  std::printf("set-up: %zu operations, %.6f s (median of 5 rounds)\n", w.ops.size(), setup_s);

  std::vector<std::string> errors = warm.errors;
  int attempted = warm.attempted;
  int failed = warm.failed;
  const auto check_pass = [&](const PassSummary& s) {
    attempted += s.attempted;
    failed += s.failed;
    errors.insert(errors.end(), s.errors.begin(), s.errors.end());
  };

  // ---- measurement ----
  // The first full pass is the reference: its reports give the quality
  // numbers, the digest every repetition must reproduce, and the traced
  // pass's cross-check.
  std::vector<Metric> metrics;
  const double t_measure = seconds_since_epoch_steady();
  // Another pass only if it should end within the window, judged by the
  // median of the passes so far, so a run measures about --seconds.
  const auto next_fits = [&](const std::vector<double>& pass_s) {
    return seconds_since_epoch_steady() - t_measure + quantile(pass_s, 0.5) <=
           static_cast<double>(args.seconds);
  };
  const Pass reference = run_pass(w);
  const PassSummary first = summarize(w, reference);
  check_pass(first);
  if (!args.trace) {
    std::vector<double> wall{reference.wall_s}, cpu{reference.cpu_s};
    while (wall.size() < 2 || next_fits(wall)) {
      const Pass pass = run_pass(w);
      const PassSummary s = summarize(w, pass);
      check_pass(s);
      if (s.digest != first.digest) errors.push_back("report digest changed between repetitions");
      wall.push_back(pass.wall_s);
      cpu.push_back(pass.cpu_s);
    }
    for (std::size_t i = 0; i < wall.size() && i < 10; ++i)
      std::printf("pass %zu: wall %.6f s, cpu %.6f s\n", i + 1, wall[i], cpu[i]);
    const double rss_mb = static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
    std::printf("end-to-end metrics:\n");
    print_sample("wall_s", wall, "s");
    print_sample("cpu_s", cpu, "s");
    metrics = {{"wall_s", quantile(wall, 0.5), "s"},
               {"cpu_s", quantile(cpu, 0.5), "s"},
               {"peak_rss_mb", rss_mb, "MB"},
               {"setup_s", setup_s, "s"},
               {"additional_cells", static_cast<double>(first.additional_cells), "count"}};
    for (std::size_t i = 2; i < metrics.size(); ++i)
      std::printf("  %-26s %12.6f %s\n", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
  } else {
    std::vector<LayerMetrics> passes;
    std::vector<double> traced_wall;
    do {
      std::vector<std::string> mismatches;
      const double t0 = seconds_since_epoch_steady();
      passes.push_back(run_traced_pass(w, reference, mismatches));
      traced_wall.push_back(seconds_since_epoch_steady() - t0);
      for (const std::string& m : mismatches) errors.push_back("probe cross-check: " + m);
      attempted += static_cast<int>(w.ops.size());
    } while (next_fits(traced_wall));
    std::printf("per-layer metrics (%zu traced pass%s):\n", passes.size(),
                passes.size() == 1 ? "" : "es");
    for (const auto& [name, first_value] : passes.front()) {
      std::vector<double> v;
      for (const LayerMetrics& p : passes) v.push_back(p.at(name).value);
      metrics.push_back({name, quantile(v, 0.5), first_value.unit});
      print_sample(name.c_str(), v, first_value.unit);
    }
    // Quality counts of the reference pass, listed per layer in
    // BENCHMARK.json: they are zero on some workloads, or (reused_ffs on
    // the single scale die) swing with the seed by more than any bound.
    metrics.push_back({"reused_ffs", static_cast<double>(first.reused_ffs), "count"});
    metrics.push_back({"tight_violations", static_cast<double>(first.tight_violations), "count"});
    metrics.push_back({"sa_test_coverage", first.sa_test_coverage, "ratio"});
    metrics.push_back({"sa_patterns", static_cast<double>(first.sa_patterns), "count"});
    metrics.push_back({"tdf_patterns", static_cast<double>(first.tdf_patterns), "count"});
  }
  const double fail_rate = static_cast<double>(failed) / attempted;
  if (args.trace) metrics.push_back({"fail_rate", fail_rate, "ratio"});

  // ---- correctness ----
  if (first.tight_violations > 0)
    errors.push_back(std::to_string(first.tight_violations) +
                     " proposed/tight job(s) fail signoff (paper: 0)");
  std::printf("quality: additional_cells %ld, reused_ffs %ld, tight_violations %d, "
              "fail_rate %.6f (%d/%d)\n",
              first.additional_cells, first.reused_ffs, first.tight_violations, fail_rate,
              failed, attempted);
  if (first.sa_patterns > 0)
    std::printf("atpg: sa_test_coverage %.6f, sa_patterns %ld, tdf_patterns %ld\n",
                first.sa_test_coverage, first.sa_patterns, first.tdf_patterns);
  std::printf("digest: %016llx\n", static_cast<unsigned long long>(first.digest));
  for (const std::string& e : errors) std::printf("FAIL: %s\n", e.c_str());
  const bool correct = errors.empty();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wcm::bench

int main(int argc, char** argv) {
  const wcm::bench::Args args = wcm::bench::parse_args(argc, argv);
  try {
    return wcm::bench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wcmbench: %s\n", e.what());
    return 1;
  }
}
