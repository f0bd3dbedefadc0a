// The traced pass: every operation replayed call by call through the public
// functions of each layer, in the order run_flow uses them, with every call
// timed from outside. Nothing inside src/ is instrumented for this; the
// oracle counters are read through the obs registry.
//
// The first solve phase is rebuilt step by step — cones, compatibility
// graph, clique partition — and its node/edge/overlap/clique counts must
// equal FlowReport::solution.phases[0] of the untraced reference run, or the
// per-layer numbers would describe different work than the end-to-end ones.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <type_traits>
#include <unordered_map>

#include "atpg/testview.hpp"
#include "bench.hpp"
#include "core/clique.hpp"
#include "core/compat_graph.hpp"
#include "core/testability.hpp"
#include "dft/insertion.hpp"
#include "dft/repair.hpp"
#include "netlist/cone.hpp"
#include "obs/obs.hpp"
#include "place/place.hpp"
#include "sta/sta.hpp"
#include "util/executor.hpp"

namespace wcm::bench {
namespace {

// ---- clique merge predicates ----
// The solver's capacity models live in an anonymous namespace of
// src/core/solver.cpp; partition_cliques takes them as a callback. These are
// the same rules restated over the public timing-admission primitives. The
// clique-count cross-check below fails if they ever drift apart.

void split_members(const CompatGraph& graph, const std::vector<int>& a,
                   const std::vector<int>& b, GateId& ff, std::vector<GateId>& tsvs) {
  for (const auto* members : {&a, &b})
    for (const int m : *members) {
      const GraphNode& node = graph.nodes[static_cast<std::size_t>(m)];
      if (node.kind == NodeKind::kScanFF)
        ff = node.gate;
      else
        tsvs.push_back(node.gate);
    }
}

bool inbound_can_merge(const GraphInputs& in, const CellLibrary& lib, const WcmConfig& cfg,
                       const ResolvedThresholds& th, const CompatGraph& graph,
                       const std::vector<int>& a, const std::vector<int>& b) {
  GateId ff = kNoGate;
  std::vector<GateId> tsvs;
  split_members(graph, a, b, ff, tsvs);
  const auto attach = [&](GateId host, GateId t) {
    return inbound_attach_load_ff(in, lib, cfg.timing_model, host, t);
  };
  double load = 0.0;
  if (ff != kNoGate) {
    load = ff_base_load_ff(in, lib, cfg.timing_model, ff);
    for (const GateId t : tsvs) load += attach(ff, t);
  } else if (!tsvs.empty()) {
    load = std::numeric_limits<double>::infinity();
    for (const GateId host : tsvs) {
      double host_load = 0.0;
      for (const GateId t : tsvs) host_load += attach(host, t);
      load = std::min(load, host_load);
    }
  }
  if (load >= th.cap_th_ff) return false;
  if (ff == kNoGate) return true;
  double attach_total = 0.0;
  for (const GateId t : tsvs) attach_total += attach(ff, t);
  return in.timing->slack[static_cast<std::size_t>(ff)] -
             ff_q_slowdown_ps(lib, attach_total) >
         th.s_th_ps;
}

bool outbound_can_merge(const GraphInputs& in, const CellLibrary& lib, const WcmConfig& cfg,
                        const ResolvedThresholds& th, const CompatGraph& graph,
                        const std::vector<int>& a, const std::vector<int>& b) {
  GateId ff = kNoGate;
  std::vector<GateId> tsvs;
  split_members(graph, a, b, ff, tsvs);
  if (tsvs.empty()) return true;
  const int width = static_cast<int>(tsvs.size()) + (ff != kNoGate ? 1 : 0);
  int depth = 0;
  for (int w = 1; w < width; w *= 2) ++depth;
  const double tree_extra =
      (std::max(depth, 1) - 1) * lib.timing(GateType::kXor).intrinsic_ps;
  const auto feasible_at = [&](GateId cell_at) {
    double capture_cap = 0.0;
    std::unordered_map<GateId, double> driver_extra;
    for (const GateId t : tsvs) {
      const GateId driver = in.netlist->gate(t).fanins[0];
      double extra = lib.pin_cap_ff(GateType::kXor);
      if (cfg.timing_model == TimingModel::kAccurate && in.placement)
        extra += lib.wire_cap_ff_per_um() * in.placement->distance(driver, cell_at);
      capture_cap += extra;
      driver_extra[driver] += extra;
    }
    if (capture_cap >= th.cap_th_ff) return false;
    for (const GateId t : tsvs) {
      const double added =
          outbound_added_delay_ps(in, lib, cfg.timing_model, t, cell_at) + tree_extra;
      if (in.timing->slack[static_cast<std::size_t>(t)] - added <= th.s_th_ps) return false;
    }
    for (const auto& [driver, extra] : driver_extra)
      if (in.timing->slack[static_cast<std::size_t>(driver)] -
              driver_slope_ps_per_ff(in, lib, driver) * extra <=
          th.s_th_ps)
        return false;
    return true;
  };
  if (ff != kNoGate) return feasible_at(ff);
  return std::any_of(tsvs.begin(), tsvs.end(), feasible_at);
}

/// First processing direction (solver.cpp: larger TSV set first).
NodeKind first_direction(const Netlist& n, OrderingPolicy ordering) {
  switch (ordering) {
    case OrderingPolicy::kInboundFirst:
      return NodeKind::kInboundTsv;
    case OrderingPolicy::kOutboundFirst:
      return NodeKind::kOutboundTsv;
    case OrderingPolicy::kLargerSetFirst:
      break;
  }
  return n.outbound_tsvs().size() > n.inbound_tsvs().size() ? NodeKind::kOutboundTsv
                                                            : NodeKind::kInboundTsv;
}

/// Times `fn` and adds the elapsed seconds to `total`.
template <typename Fn>
auto timed(double& total, Fn&& fn) {
  const double t0 = seconds_since_epoch_steady();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    total += seconds_since_epoch_steady() - t0;
  } else {
    auto result = fn();
    total += seconds_since_epoch_steady() - t0;
    return result;
  }
}

struct Totals {
  double generate_s = 0, place_s = 0, hpwl_um = 0, timing_s = 0, signoff_s = 0;
  double cone_s = 0, cone_endpoints = 0, sink_universe = 0, source_universe = 0;
  double graph_s = 0, candidate_pairs = 0, graph_edges = 0, overlap_edges = 0;
  double clique_s = 0, cliques = 0, solve_s = 0;
  double prepare_s = 0, cache_hit = 0, cache_miss = 0, structural_evals = 0,
         incremental_evals = 0, measured_queries = 0;
  double insert_s = 0, repair_demotions = 0;
  double stuck_at_s = 0, transition_s = 0, faults = 0, patterns = 0;
};

double counter(const char* name) {
  return static_cast<double>(obs::MetricsRegistry::instance().value(name));
}

void mismatch(std::vector<std::string>& out, const Operation& op, const char* what,
              double traced, double reference) {
  if (traced == reference) return;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s: traced %s %.17g != reference %.17g",
                op.label.c_str(), what, traced, reference);
  out.emplace_back(buf);
}

/// Replays one operation; adds its layer costs to `t`.
void trace_operation(const Operation& op, const FlowReport& ref, int width, Totals& t,
                     std::vector<std::string>& mismatches) {
  const FlowConfig& cfg = op.config;

  // 1. die synthesis, signoff clock, placement, the solver's timing view
  const Netlist n = timed(t.generate_s, [&] { return generate_die(op.spec); });
  CellLibrary lib = cfg.lib;
  timed(t.timing_s, [&] {  // every scenario config derives its clock
    const double tight =
        tight_clock_period_ps(n, cfg.lib, cfg.place, cfg.tight_clock_margin);
    lib.set_clock_period_ps(cfg.clock_policy == ClockPolicy::kTightDerived
                                ? tight
                                : tight * cfg.loose_clock_factor);
  });
  mismatch(mismatches, op, "clock_period_ps", lib.clock_period_ps(), ref.clock_period_ps);
  const Placement placement = timed(t.place_s, [&] { return place(n, cfg.place); });
  t.hpwl_um += placement.total_hpwl(n);

  // solve_wcm times the ideal insertion (one dedicated cell per TSV);
  // with timing repair off its session report equals one full run.
  Netlist view = n;
  Placement view_placement = placement;
  const TimingReport timing = timed(t.timing_s, [&] {
    insert_wrappers(view, one_cell_per_tsv(n), &view_placement);
    return StaEngine(view, lib, &view_placement).run();
  });
  const StaEngine sta(n, lib, &placement);

  ConeDb cones(n);
  AtpgOptions measure_opts;  // the solver's oracle ATPG settings
  measure_opts.max_random_batches = 8;
  measure_opts.useless_batch_window = 2;
  measure_opts.deterministic_phase = true;
  measure_opts.threads = cfg.wcm.solve_threads;
  measure_opts.collapse = cfg.wcm.atpg_collapse;
  measure_opts.prune_unobservable = cfg.wcm.atpg_collapse;
  measure_opts.share_stems = cfg.wcm.atpg_collapse;
  measure_opts.sim_words = cfg.wcm.atpg_sim_words;
  TestabilityOracle oracle(n, cones, cfg.wcm.oracle_mode, measure_opts);
  oracle.set_incremental(cfg.wcm.oracle_incremental);

  GraphInputs in;
  in.netlist = &n;
  in.placement = &placement;
  in.sta = &sta;
  in.timing = &timing;
  in.timing_netlist = &view;
  in.cones = &cones;
  in.oracle = &oracle;
  const ResolvedThresholds th = resolve_thresholds(cfg.wcm, lib, &placement);

  // 2. cones of the first phase's graph nodes (same admission and chunking
  //    as build_compat_graph, so the graph below finds them warm)
  const NodeKind direction = first_direction(n, cfg.wcm.ordering);
  const bool inbound = direction == NodeKind::kInboundTsv;
  std::vector<GateId> ffs = n.scan_flip_flops();
  std::vector<GateId> nodes = ffs;
  for (const GateId tsv : inbound ? n.inbound_tsvs() : n.outbound_tsvs()) {
    const bool admitted =
        inbound ? inbound_attach_load_ff(in, lib, cfg.wcm.timing_model, tsv, tsv) < th.cap_th_ff
                : timing.slack[static_cast<std::size_t>(tsv)] > th.s_th_ps;
    if (admitted) nodes.push_back(tsv);
  }
  timed(t.cone_s, [&] {
    exec::parallel_chunks(nodes.size(), std::min<std::size_t>(nodes.size(), 16), width,
                          [&](std::size_t, std::size_t begin, std::size_t end) {
                            for (std::size_t k = begin; k < end; ++k)
                              (void)(inbound ? cones.fanout_cone(nodes[k])
                                             : cones.fanin_cone(nodes[k]));
                          });
  });
  for (const GateId g : nodes)
    t.cone_endpoints +=
        static_cast<double>((inbound ? cones.fanout_cone(g) : cones.fanin_cone(g)).count());
  t.sink_universe += static_cast<double>(n.primary_outputs().size() +
                                         n.outbound_tsvs().size() + n.flip_flops().size());
  t.source_universe += static_cast<double>(n.primary_inputs().size() +
                                           n.inbound_tsvs().size() + n.flip_flops().size());

  // 3-4. oracle reference campaign (measured backend only), then the graph
  const double hit0 = counter("oracle.cache_hit"), miss0 = counter("oracle.cache_miss"),
               str0 = counter("oracle.structural_evals"),
               inc0 = counter("oracle.incremental_evals");
  if (cfg.wcm.allow_overlap_sharing && oracle.prefers_batching())
    timed(t.prepare_s, [&] { oracle.prepare(); });
  const CompatGraph graph = timed(t.graph_s, [&] {
    return build_compat_graph(in, lib, inbound ? n.inbound_tsvs() : n.outbound_tsvs(),
                              direction, ffs, cfg.wcm);
  });
  t.cache_hit += counter("oracle.cache_hit") - hit0;
  t.cache_miss += counter("oracle.cache_miss") - miss0;
  t.structural_evals += counter("oracle.structural_evals") - str0;
  t.incremental_evals += counter("oracle.incremental_evals") - inc0;
  t.measured_queries += oracle.measured_queries();
  const double tsv_nodes = static_cast<double>(graph.nodes.size() - ffs.size());
  t.candidate_pairs +=
      static_cast<double>(ffs.size()) * tsv_nodes + tsv_nodes * (tsv_nodes - 1) / 2;
  t.graph_edges += graph.num_edges;
  t.overlap_edges += graph.overlap_edges;

  // 5. clique partition of that graph
  const CliquePartition cliques = timed(t.clique_s, [&] {
    return partition_cliques(graph, [&](const auto& a, const auto& b) {
      return inbound ? inbound_can_merge(in, lib, cfg.wcm, th, graph, a, b)
                     : outbound_can_merge(in, lib, cfg.wcm, th, graph, a, b);
    });
  });
  t.cliques += static_cast<double>(cliques.cliques.size());

  if (ref.solution.phases.empty()) {
    mismatches.push_back(op.label + ": reference report has no solve phase");
  } else {
    const PhaseStats& p = ref.solution.phases.front();
    mismatch(mismatches, op, "phase0.direction", static_cast<int>(direction),
             static_cast<int>(p.direction));
    mismatch(mismatches, op, "phase0.graph_nodes", static_cast<double>(nodes.size()),
             p.graph_nodes);
    mismatch(mismatches, op, "phase0.graph_nodes(graph)",
             static_cast<double>(graph.nodes.size()), p.graph_nodes);
    mismatch(mismatches, op, "phase0.graph_edges", graph.num_edges, p.graph_edges);
    mismatch(mismatches, op, "phase0.overlap_edges", graph.overlap_edges, p.overlap_edges);
    mismatch(mismatches, op, "phase0.cliques", static_cast<double>(cliques.cliques.size()),
             p.cliques);
  }

  // 6. the whole solve, cold (fresh cones and oracle inside)
  const WcmSolution solution =
      timed(t.solve_s, [&] { return solve_wcm(n, &placement, lib, cfg.wcm); });

  // 7. wrapper insertion + signoff STA (the flow's first signoff round)
  Netlist inserted = n;
  Placement inserted_placement = placement;
  timed(t.insert_s, [&] {
    insert_wrappers(inserted, solution.plan, &inserted_placement);
    apply_repair_edits(inserted, &inserted_placement, solution.repair_edits);
  });
  timed(t.signoff_s, [&] { (void)StaEngine(inserted, lib, &inserted_placement).run(); });
  t.repair_demotions += ref.repair_demotions;

  // 8. ATPG verification on the final (post-ECO) plan's test view
  if (cfg.run_stuck_at || cfg.run_transition) {
    const TestView test_view = build_test_view(n, ref.solution.plan);
    const AtpgEngine engine(test_view);
    if (cfg.run_stuck_at) {
      const AtpgResult sa = timed(t.stuck_at_s, [&] { return engine.run_stuck_at(cfg.atpg); });
      t.faults += sa.total_faults;
      t.patterns += sa.patterns;
      mismatch(mismatches, op, "stuck_at.patterns", sa.patterns, ref.stuck_at.patterns);
    }
    if (cfg.run_transition) {
      const AtpgResult tdf =
          timed(t.transition_s, [&] { return engine.run_transition(cfg.atpg); });
      t.faults += tdf.total_faults;
      t.patterns += tdf.patterns;
      mismatch(mismatches, op, "transition.patterns", tdf.patterns, ref.transition.patterns);
    }
  }
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

LayerMetrics run_traced_pass(const Workload& w, const Pass& reference,
                             std::vector<std::string>& mismatches) {
  obs::set_metrics_enabled(true);
  Totals t;
  const double t0 = seconds_since_epoch_steady();
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const JobResult& ref = reference.result.jobs.at(i);
    if (!ref.ok) {
      mismatches.push_back(w.ops[i].label + ": reference job failed, nothing to compare");
      continue;
    }
    trace_operation(w.ops[i], ref.report, w.width, t, mismatches);
  }
  const double traced_wall = seconds_since_epoch_steady() - t0;
  obs::set_metrics_enabled(false);

  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  LayerMetrics m;
  m["gen.generate_s"] = {t.generate_s, "s"};
  m["place.place_s"] = {t.place_s, "s"};
  m["place.hpwl_um"] = {t.hpwl_um, "um"};
  m["sta.timing_s"] = {t.timing_s, "s"};
  m["sta.signoff_s"] = {t.signoff_s, "s"};
  m["netlist.cone_s"] = {t.cone_s, "s"};
  m["netlist.cone_endpoints"] = {t.cone_endpoints, "count"};
  m["netlist.sink_universe"] = {t.sink_universe, "count"};
  m["netlist.source_universe"] = {t.source_universe, "count"};
  m["core.graph_s"] = {t.graph_s, "s"};
  m["core.candidate_pairs"] = {t.candidate_pairs, "count"};
  m["core.graph_edges"] = {t.graph_edges, "count"};
  m["core.overlap_edges"] = {t.overlap_edges, "count"};
  m["core.edge_yield"] = {ratio(t.graph_edges, t.candidate_pairs), "ratio"};
  m["core.clique_s"] = {t.clique_s, "s"};
  m["core.cliques"] = {t.cliques, "count"};
  m["core.solve_s"] = {t.solve_s, "s"};
  m["core.solve_other_s"] = {t.solve_s - t.cone_s - t.prepare_s - t.graph_s - t.clique_s, "s"};
  m["oracle.prepare_s"] = {t.prepare_s, "s"};
  m["oracle.cache_hit"] = {t.cache_hit, "count"};
  m["oracle.cache_miss"] = {t.cache_miss, "count"};
  m["oracle.hit_rate"] = {ratio(t.cache_hit, t.cache_hit + t.cache_miss), "ratio"};
  m["oracle.structural_evals"] = {t.structural_evals, "count"};
  m["oracle.incremental_evals"] = {t.incremental_evals, "count"};
  m["oracle.measured_queries"] = {t.measured_queries, "count"};
  m["dft.insert_s"] = {t.insert_s, "s"};
  m["dft.repair_demotions"] = {t.repair_demotions, "count"};
  m["atpg.stuck_at_s"] = {t.stuck_at_s, "s"};
  m["atpg.transition_s"] = {t.transition_s, "s"};
  m["atpg.faults"] = {t.faults, "count"};
  m["atpg.patterns"] = {t.patterns, "count"};
  m["atpg.fault_patterns_per_s"] = {
      ratio(t.faults * t.patterns, t.stuck_at_s + t.transition_s), "1/s"};

  // runner: the untraced reference pass (a single run_flow has no runner)
  const CampaignResult& r = reference.result;
  std::vector<double> job_s;
  double busy_s = 0.0;
  for (const JobResult& job : r.jobs) {
    job_s.push_back(job.total_ms / 1e3);
    busy_s += job.total_ms / 1e3;
  }
  const bool has_runner = w.campaign && !job_s.empty();
  m["runner.job_p50_s"] = {has_runner ? median(job_s) : 0.0, "s"};
  m["runner.job_max_s"] = {has_runner ? *std::max_element(job_s.begin(), job_s.end()) : 0.0,
                           "s"};
  m["runner.worker_idle_s"] = {
      has_runner ? r.metrics.workers * (r.metrics.wall_ms / 1e3) - busy_s : 0.0, "s"};
  m["runner.steals"] = {has_runner ? static_cast<double>(r.metrics.tasks_stolen) : 0.0,
                        "count"};
  m["trace.overhead_s"] = {traced_wall - reference.wall_s, "s"};
  return m;
}

}  // namespace wcm::bench
