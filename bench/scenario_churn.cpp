// Steady-tick latency under path churn: what does overlay dynamism cost
// the streaming engine, and what does the pair-indexed covariance
// accumulator buy back at scale?
//
//   build/bench_scenario_churn [tree_nodes=1300] [tree_branching=8]
//                              [tree_m=200] [tree_ticks=40] [churn_every=8]
//                              [overlay_hosts=72] [overlay_m=50]
//                              [overlay_ticks=12] [grow_hosts=40]
//                              [grow_batch=512] [grow_m=50]
//                              [scenarios=<dir>]
//                              [threads=0|1,2,8] [--json <path>]
//
// Three instances, all driven through scenario::ScenarioRunner:
//  * the 646-path random tree of bench_monitor_streaming, swept over three
//    churn rates (no churn / leave-join every 2*churn_every ticks / every
//    churn_every ticks) — the tick-latency-vs-churn-rate curve, plus the
//    refactorization counts (one per relearn whose drop-negative G
//    changed);
//  * the 5112-path PlanetLab-like overlay of the PR-3 record, comparing
//    the dense O(np^2)-per-tick accumulator against core::PairMoments
//    (O(np + sharing pairs) per tick) under light churn — the ROADMAP
//    lever: only sharing-pair covariances are ever read by drop-negative,
//    ~1.3M entries instead of 26M there;
//    the pair-accumulator run also times the cold path: runner
//    construction (topology, routing and fluttering sanitation, universe,
//    monitor) and a warm-spare recovery (construct a fresh runner, restore
//    the finished run's checkpoint into it);
//  * a mass-growth overlay: `grow_batch` reserve paths join in ONE grow
//    event.  Measures the batched LiaMonitor::add_paths against the
//    per-row add_path loop at that batch size (the acceptance lever: one
//    O(appended nnz) append + one accumulator growth, not `grow_batch`
//    reallocation cycles), the event-tick latency through the runner, and
//    what lazy simulation saves while the reserve pool lies dormant.
//
// With `scenarios=<dir>` (e.g. scenarios=scenarios), every *.scn script in
// the directory also runs once under the lia_cli defaults (streaming engine,
// dense accumulator), recording its diagnoses, refactorizations and
// Cholesky factor attempts (scn_<name>_*; thread-invariant, so unsuffixed).
//
// `threads=1,2,8` re-records every figure per worker count in one run
// (keys suffixed _t<N>); the default single-entry sweep keeps the
// unsuffixed keys.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/monitor.hpp"
#include "io/checkpoint.hpp"
#include "io/scenario_io.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace {

using namespace losstomo;

struct ChurnFigures {
  scenario::ScenarioOutcome outcome;
  std::size_t np = 0, nc = 0;
  std::size_t refactorizations = 0;
  std::size_t factor_attempts = 0;
  std::size_t store_pairs = 0;
  std::size_t store_bytes = 0;
  double setup_seconds = 0.0;    // runner construction
  double restore_seconds = 0.0;  // fresh runner + restore_state (if timed)
};

ChurnFigures run_scenario(const scenario::ScenarioSpec& spec,
                          core::MonitorOptions options,
                          bool time_restore = false) {
  ChurnFigures out;
  const util::Timer setup;
  scenario::ScenarioRunner runner(spec, options);
  out.setup_seconds = setup.seconds();
  out.np = runner.universe().path_count();
  out.nc = runner.universe().link_count();
  out.outcome = runner.run();
  if (const auto* eqs = runner.monitor().streaming_equations()) {
    out.refactorizations = eqs->refactorizations();
    out.factor_attempts = eqs->factor_attempts();
    if (const auto* store = eqs->pair_store()) {
      out.store_pairs = store->pair_count();
      out.store_bytes = store->bytes();
    }
  }
  if (time_restore) {
    io::CheckpointWriter writer;
    runner.save_state(writer);
    auto reader = io::CheckpointReader::from_bytes(writer.finish());
    const util::Timer restore;
    scenario::ScenarioRunner spare(spec, options);
    spare.restore_state(reader);
    out.restore_seconds = restore.seconds();
  }
  return out;
}

// Leave/join flaps on a rotating set of paths, every `gap` ticks from the
// first diagnosing tick on; gap 0 = no churn.
scenario::ScenarioSpec tree_spec(std::size_t nodes, std::size_t branching,
                                 std::size_t m, std::size_t ticks,
                                 std::size_t gap) {
  scenario::ScenarioSpec spec;
  spec.name = gap == 0 ? "tree-stable" : "tree-churn";
  spec.topology.kind = scenario::TopologySpec::Kind::kTree;
  spec.topology.nodes = nodes;
  spec.topology.branching = branching;
  spec.topology.seed = 41;
  spec.window = m;
  spec.ticks = m + 2 + ticks;
  spec.seed = 287;
  spec.p = 0.05;
  spec.probes = 1000;
  if (gap > 0) {
    std::size_t path = 3;
    for (std::size_t t = m + 2; t + gap / 2 < spec.ticks; t += gap) {
      spec.events.push_back({.tick = t,
                             .type = scenario::EventType::kPathLeave,
                             .path = path});
      spec.events.push_back({.tick = t + gap / 2,
                             .type = scenario::EventType::kPathJoin,
                             .path = path});
      path += 7;
    }
  }
  return spec;
}

scenario::ScenarioSpec overlay_spec(std::size_t hosts, std::size_t m,
                                    std::size_t ticks, std::size_t gap) {
  scenario::ScenarioSpec spec;
  spec.name = "overlay-churn";
  spec.topology.kind = scenario::TopologySpec::Kind::kOverlay;
  spec.topology.hosts = hosts;
  spec.topology.as_count = 10;
  spec.topology.routers_per_as = 8;
  spec.topology.seed = 41;
  spec.window = m;
  spec.ticks = m + 2 + ticks;
  spec.seed = 287;
  spec.p = 0.04;
  spec.probes = 1000;
  if (gap > 0) {
    std::size_t path = 5;
    for (std::size_t t = m + 2; t + gap / 2 < spec.ticks; t += gap) {
      spec.events.push_back({.tick = t,
                             .type = scenario::EventType::kPathLeave,
                             .path = path});
      spec.events.push_back({.tick = t + gap / 2,
                             .type = scenario::EventType::kPathJoin,
                             .path = path});
      path += 11;
    }
  }
  return spec;
}

scenario::ScenarioSpec mass_growth_spec(std::size_t hosts, std::size_t m,
                                        std::size_t batch, bool lazy) {
  scenario::ScenarioSpec spec;
  spec.name = "mass-growth";
  spec.topology.kind = scenario::TopologySpec::Kind::kOverlay;
  spec.topology.hosts = hosts;
  spec.topology.as_count = 10;
  spec.topology.routers_per_as = 8;
  spec.topology.seed = 41;
  spec.window = m;
  spec.ticks = m + 10;
  spec.seed = 287;
  spec.p = 0.04;
  spec.probes = 1000;
  spec.reserve_paths = batch;
  spec.lazy_simulation = lazy;
  // Late growth: most diagnosing ticks run with the reserve pool dormant,
  // so the lazy-vs-full steady-tick comparison isolates what skipping the
  // dormant rows saves.
  spec.events.push_back({.tick = m + 8,
                         .type = scenario::EventType::kGrow,
                         .count = batch});
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto tree_nodes = args.get_size("tree_nodes", 1300);
  const auto tree_branching = args.get_size("tree_branching", 8);
  const auto tree_m = args.get_size("tree_m", 200);
  const auto tree_ticks = args.get_size("tree_ticks", 40);
  const auto churn_every = args.get_size("churn_every", 8);
  const auto overlay_hosts = args.get_size("overlay_hosts", 72);
  const auto overlay_m = args.get_size("overlay_m", 50);
  const auto overlay_ticks = args.get_size("overlay_ticks", 12);
  const auto grow_hosts = args.get_size("grow_hosts", 40);
  const auto grow_batch = args.get_size("grow_batch", 512);
  const auto grow_m = args.get_size("grow_m", 50);
  const auto scenario_dir = args.get_string("scenarios", "");
  const auto json_path = args.get_string("json", "");
  const bench::ThreadSweep sweep(args);
  args.finish();

  core::MonitorOptions streaming;
  streaming.lia.variance.negatives = core::NegativeCovariancePolicy::kDrop;
  core::MonitorOptions pair_mode = streaming;
  pair_mode.accumulator = core::CovarianceAccumulator::kSharingPairs;

  bench::JsonReport report;
  report.set("bench", std::string("scenario_churn"));
  report.set("tree_m", tree_m);
  report.set("overlay_m", overlay_m);
  report.set("churn_every", churn_every);

  sweep.run([&](std::size_t threads, const std::string& suffix) {
    std::cout << "== scenario churn (threads="
              << (threads == 0 ? std::string("default")
                               : std::to_string(threads))
              << ") ==\n";
    report.set("threads" + suffix,
               threads == 0 ? util::default_threads() : threads);

    // -- tree: tick latency vs churn rate -------------------------------
    util::Table table({"instance", "churn", "steady tick s", "event tick s",
                       "refact", "attempts"});
    const struct {
      const char* label;
      std::size_t gap;
    } rates[] = {{"none", 0}, {"light", 2 * churn_every}, {"heavy", churn_every}};
    for (const auto& rate : rates) {
      const auto fig = run_scenario(
          tree_spec(tree_nodes, tree_branching, tree_m, tree_ticks, rate.gap),
          streaming);
      table.add_row({"tree (" + std::to_string(fig.np) + "p)", rate.label,
                     util::Table::num(fig.outcome.steady_tick_seconds, 5),
                     util::Table::num(fig.outcome.event_tick_seconds, 5),
                     std::to_string(fig.refactorizations),
                     std::to_string(fig.factor_attempts)});
      const std::string base = std::string("tree_") + rate.label;
      report.set(base + "_steady_tick_seconds" + suffix,
                 fig.outcome.steady_tick_seconds);
      if (rate.gap > 0) {
        report.set(base + "_event_tick_seconds" + suffix,
                   fig.outcome.event_tick_seconds);
      }
      report.set(base + "_refactorizations" + suffix, fig.refactorizations);
      if (rate.gap == 0) {
        report.set("tree_np" + suffix, fig.np);
        report.set("tree_nc" + suffix, fig.nc);
      }
    }

    // -- overlay: dense vs pair-indexed accumulator under churn ---------
    if (overlay_hosts >= 2) {
      const auto dense = run_scenario(
          overlay_spec(overlay_hosts, overlay_m, overlay_ticks,
                       2 * churn_every),
          streaming);
      const auto pairs = run_scenario(
          overlay_spec(overlay_hosts, overlay_m, overlay_ticks,
                       2 * churn_every),
          pair_mode, /*time_restore=*/true);
      table.add_row({"overlay (" + std::to_string(dense.np) + "p)", "dense",
                     util::Table::num(dense.outcome.steady_tick_seconds, 5),
                     util::Table::num(dense.outcome.event_tick_seconds, 5),
                     std::to_string(dense.refactorizations),
                     std::to_string(dense.factor_attempts)});
      table.add_row({"overlay (" + std::to_string(pairs.np) + "p)", "pairs",
                     util::Table::num(pairs.outcome.steady_tick_seconds, 5),
                     util::Table::num(pairs.outcome.event_tick_seconds, 5),
                     std::to_string(pairs.refactorizations),
                     std::to_string(pairs.factor_attempts)});
      report.set("overlay_np" + suffix, dense.np);
      report.set("overlay_nc" + suffix, dense.nc);
      report.set("overlay_pairs" + suffix, pairs.store_pairs);
      report.set("overlay_store_bytes" + suffix, pairs.store_bytes);
      report.set("overlay_dense_steady_tick_seconds" + suffix,
                 dense.outcome.steady_tick_seconds);
      report.set("overlay_dense_event_tick_seconds" + suffix,
                 dense.outcome.event_tick_seconds);
      report.set("overlay_pair_steady_tick_seconds" + suffix,
                 pairs.outcome.steady_tick_seconds);
      report.set("overlay_pair_event_tick_seconds" + suffix,
                 pairs.outcome.event_tick_seconds);
      report.set("overlay_pair_speedup" + suffix,
                 dense.outcome.steady_tick_seconds /
                     pairs.outcome.steady_tick_seconds);
      report.set("overlay_setup_seconds" + suffix, pairs.setup_seconds);
      report.set("overlay_restore_seconds" + suffix, pairs.restore_seconds);
      std::cout << "overlay cold path (pairs): setup " << pairs.setup_seconds
                << " s, restore " << pairs.restore_seconds << " s\n";
    }
    // -- mass growth: one grow event of `grow_batch` paths --------------
    if (grow_hosts >= 2 && grow_batch >= 1) {
      // Direct append comparison on the same universe: one batched
      // add_paths vs the per-row add_path loop.
      const auto spec = mass_growth_spec(grow_hosts, grow_m, grow_batch,
                                         /*lazy=*/true);
      scenario::ScenarioRunner layout(spec, pair_mode);
      const auto& universe = layout.universe().matrix();
      const std::size_t initial = universe.rows() - grow_batch;
      std::vector<std::vector<std::uint32_t>> initial_rows;
      initial_rows.reserve(initial);
      for (std::size_t i = 0; i < initial; ++i) {
        const auto row = universe.row(i);
        initial_rows.emplace_back(row.begin(), row.end());
      }
      std::vector<std::vector<std::uint32_t>> batch_rows;
      batch_rows.reserve(grow_batch);
      for (std::size_t i = initial; i < universe.rows(); ++i) {
        const auto row = universe.row(i);
        batch_rows.emplace_back(row.begin(), row.end());
      }
      // Batched vs per-row append under both accumulators.  The dense
      // accumulator is where the per-row path hurts most — each add_path
      // reallocates the full np x np cross-product matrix, the exact
      // ROADMAP complaint — while the pair-indexed accumulator isolates
      // the ring/bookkeeping resizes.
      const auto time_append = [&](core::MonitorOptions options,
                                   bool batch_mode) {
        options.window = grow_m;
        options.lia.variance.threads = threads;
        core::LiaMonitor monitor(
            linalg::SparseBinaryMatrix(universe.cols(), initial_rows),
            options);
        // A pair monitor builds its stack at first use: let one snapshot
        // do that outside the timed append.
        (void)monitor.observe(std::vector<double>(initial, 0.0));
        auto rows = batch_rows;
        util::Timer timer;
        if (batch_mode) {
          monitor.add_paths(std::move(rows));
        } else {
          for (auto& row : rows) monitor.add_path(std::move(row));
        }
        return timer.seconds();
      };
      const double batched_seconds = time_append(streaming, true);
      const double loop_seconds = time_append(streaming, false);
      const double batched_pairs_seconds = time_append(pair_mode, true);
      const double loop_pairs_seconds = time_append(pair_mode, false);

      // End-to-end scenario: event-tick latency and the lazy-simulation
      // saving while the reserve pool lies dormant.
      const auto lazy_fig = run_scenario(spec, pair_mode);
      const auto full_fig = run_scenario(
          mass_growth_spec(grow_hosts, grow_m, grow_batch, /*lazy=*/false),
          pair_mode);

      table.add_row({"mass-grow (" + std::to_string(universe.rows()) + "p)",
                     "batch=" + std::to_string(grow_batch),
                     util::Table::num(lazy_fig.outcome.steady_tick_seconds, 5),
                     util::Table::num(lazy_fig.outcome.event_tick_seconds, 5),
                     std::to_string(lazy_fig.refactorizations),
                     std::to_string(lazy_fig.factor_attempts)});
      std::cout << "mass growth: add_paths(" << grow_batch << ") dense "
                << batched_seconds << " s batched vs " << loop_seconds
                << " s per-row (" << loop_seconds / batched_seconds
                << "x); pairs " << batched_pairs_seconds << " s vs "
                << loop_pairs_seconds << " s ("
                << loop_pairs_seconds / batched_pairs_seconds << "x)\n";
      report.set("mass_growth_np" + suffix, universe.rows());
      report.set("mass_growth_nc" + suffix, universe.cols());
      report.set("mass_growth_batch" + suffix, grow_batch);
      report.set("mass_growth_addpaths_seconds" + suffix, batched_seconds);
      report.set("mass_growth_addpath_loop_seconds" + suffix, loop_seconds);
      report.set("mass_growth_addpaths_speedup" + suffix,
                 loop_seconds / batched_seconds);
      report.set("mass_growth_addpaths_pairs_seconds" + suffix,
                 batched_pairs_seconds);
      report.set("mass_growth_addpath_pairs_loop_seconds" + suffix,
                 loop_pairs_seconds);
      report.set("mass_growth_addpaths_pairs_speedup" + suffix,
                 loop_pairs_seconds / batched_pairs_seconds);
      report.set("mass_growth_event_tick_seconds" + suffix,
                 lazy_fig.outcome.event_tick_seconds);
      report.set("mass_growth_steady_tick_seconds" + suffix,
                 lazy_fig.outcome.steady_tick_seconds);
      report.set("mass_growth_full_sim_steady_tick_seconds" + suffix,
                 full_fig.outcome.steady_tick_seconds);
      report.set("mass_growth_refactorizations" + suffix,
                 lazy_fig.refactorizations);
    }

    table.print(std::cout);
    std::cout << '\n';
  });

  if (!scenario_dir.empty()) {
    // The shipped scripts: how often each refactorizes, and how many
    // factorizations (jitter-ladder attempts) those refactorizations cost.
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(scenario_dir)) {
      if (entry.path().extension() == ".scn") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    util::Table table({"scenario", "diagnosed", "refactorizations",
                       "factor attempts"});
    for (const auto& file : files) {
      const auto fig = run_scenario(io::load_scenario(file.string()), {});
      const std::string name = file.stem().string();
      table.add_row({name, std::to_string(fig.outcome.diagnosed),
                     std::to_string(fig.refactorizations),
                     std::to_string(fig.factor_attempts)});
      report.set("scn_" + name + "_diagnosed", fig.outcome.diagnosed);
      report.set("scn_" + name + "_refactorizations", fig.refactorizations);
      report.set("scn_" + name + "_factor_attempts", fig.factor_attempts);
    }
    std::cout << "== shipped scenarios (" << scenario_dir << ") ==\n";
    table.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "The pair-indexed accumulator maintains only the sharing-pair "
               "covariance entries, so an overlay steady tick is O(np + "
               "pairs) instead of O(np^2); a relearn refactorizes the "
               "normal equations whenever a pair flip or a churn event "
               "changed them.\n";
  report.write(json_path);
  return 0;
}
