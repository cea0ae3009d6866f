#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/lia.hpp"
#include "core/metrics.hpp"
#include "core/monitor.hpp"
#include "core/variance_estimator.hpp"
#include "io/binary_trace.hpp"
#include "io/checkpoint.hpp"
#include "net/routing_matrix.hpp"
#include "obs/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/probe_sim.hpp"
#include "stats/rng.hpp"
#include "stats/streaming.hpp"
#include "topology/generators.hpp"
#include "topology/overlay.hpp"
#include "topology/routing.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using namespace losstomo;
using Inference = std::optional<core::LossInference>;

// ---- Workload definitions -------------------------------------------------

// One worker thread everywhere: at 2 threads the 5112-path pair-accumulator
// tick varies +-15 % from run to run on a 4-core host, at 1 within +-2 %.
constexpr std::size_t kThreads = 1;
constexpr std::size_t kWindow = 50;
constexpr std::uint64_t kTopologySeed = 41;  // both topologies are fixed
constexpr std::uint64_t kLossMapSeed = 4141;  // and so are their loss maps
constexpr std::size_t kChurnCadence = 4;     // ticks between churn events
constexpr std::size_t kChurnCycle = 5;       // leave, join, down, up, grow
constexpr std::size_t kGrowBurst = 8;        // paths per grow event

enum class Kind { kTreeRefactor, kOverlayReplay, kOverlayChurn };

struct WorkloadDef {
  const char* name;
  Kind kind;
  double ticks_per_second;  // nominal rate sizing the timed phase
  std::size_t min_ticks;    // leaves >= 10 steady ticks beyond p90
  // Set-ups and recovery cycles per run, each reported as a median: more
  // where one is cheap, so that the median is steady.
  std::size_t setups;
  std::size_t recoveries;
};

constexpr WorkloadDef kWorkloads[] = {
    {"tree_refactor", Kind::kTreeRefactor, 4.0, 110, 15, 9},
    {"overlay_replay", Kind::kOverlayReplay, 8.0, 110, 7, 3},
    {"overlay_churn", Kind::kOverlayChurn, 16.0, 150, 9, 3},
};

const WorkloadDef& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

/// The public options each workload sets, in one place: window and threads
/// everywhere, plus the accumulator and drop policy for overlay_churn.
/// Everything else is a library default.
core::MonitorOptions monitor_options(Kind kind) {
  core::MonitorOptions options;
  options.window = kWindow;
  options.lia.variance.threads = kThreads;
  if (kind == Kind::kOverlayChurn) {
    options.accumulator = core::CovarianceAccumulator::kSharingPairs;
    options.lia.variance.negatives = core::NegativeCovariancePolicy::kDrop;
  }
  return options;
}

// The simulator draws no congestion of its own (p = 0): every link's loss
// rate comes from the workload's fixed loss map below.
sim::ScenarioConfig sim_config(Kind kind) {
  sim::ScenarioConfig config;
  config.p = 0.0;
  config.probes_per_snapshot = kind == Kind::kTreeRefactor ? 800 : 1000;
  return config;
}

/// The workload's loss-rate map, fixed like its topology: each link is
/// congested with probability p (0.1 on the tree, 0.04 on the overlay) and
/// gets a rate from the calibrated LLRD1 model's congested or good range.
/// --seed then drives only the loss processes and the probe sampling.  A
/// seeded map made the tree's cost seed-dependent: one seed in ten never
/// refactorized, and the rest spread their median tick over 200-325 ms.
std::vector<double> loss_map(Kind kind, std::size_t links) {
  const auto model = sim::LossModelConfig::llrd1_calibrated();
  const double p = kind == Kind::kTreeRefactor ? 0.1 : 0.04;
  stats::Rng rng(kLossMapSeed);
  std::vector<double> rates(links);
  for (auto& rate : rates) {
    const bool congested = rng.bernoulli(p);
    const double good = rng.uniform(model.good_lo, model.good_hi);
    const double bad = rng.uniform(model.congested_lo, model.congested_hi);
    rate = congested ? bad : good;
  }
  return rates;
}

void apply_loss_map(Kind kind, sim::SnapshotSimulator& sim,
                    std::size_t links) {
  const auto rates = loss_map(kind, links);
  for (std::size_t k = 0; k < links; ++k) sim.force_link_loss(k, rates[k]);
}

struct Universe {
  net::Graph graph;
  std::vector<net::Path> paths;
};

Universe tree_universe() {
  stats::Rng rng(kTopologySeed);
  auto tree =
      topology::make_random_tree({.nodes = 1300, .max_branching = 8}, rng);
  Universe u;
  u.paths = topology::tree_paths(tree);
  u.graph = std::move(tree.graph);
  return u;
}

topology::OverlayConfig overlay_config() {
  return {.hosts = 72, .as_count = 10, .routers_per_as = 8};
}

// Mirrors the scenario engine's overlay generator, so overlay_replay and
// overlay_churn monitor the same 5112 paths.
Universe overlay_universe() {
  stats::Rng rng(kTopologySeed);
  auto topo = topology::make_planetlab_like(overlay_config(), rng);
  auto routed = topology::route_paths(topo.graph, topo.hosts, topo.hosts);
  Universe u;
  u.paths = std::move(routed.paths);
  u.graph = std::move(topo.graph);
  return u;
}

// ---- Measurement bookkeeping ----------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void require(RunResult& out, bool ok, const std::string& problem) {
  if (ok) return;
  out.correct = false;
  out.problems.push_back(problem);
}

void add_metric(std::vector<Metric>& list, std::string name, double value,
                std::string unit) {
  list.push_back({std::move(name), value, std::move(unit)});
}

/// The paper's accuracy figures pooled over diagnosing ticks: DR and FPR of
/// congested-link location at the loss model's tl (Fig. 5) and the per-link
/// absolute loss error (Fig. 6).
struct Accuracy {
  std::size_t congested = 0;
  std::size_t hits = 0;
  std::size_t diagnosed = 0;
  std::size_t false_alarms = 0;
  std::vector<double> abs_err;

  void add(const core::LossInference& inference,
           std::span<const double> true_loss,
           const std::vector<bool>& truly_congested, double tl) {
    const auto loc =
        core::locate_congested(inference.loss, truly_congested, tl);
    congested += loc.actual_congested;
    hits += loc.hits;
    diagnosed += loc.diagnosed_congested;
    false_alarms += loc.false_alarms;
    for (std::size_t k = 0; k < true_loss.size(); ++k) {
      abs_err.push_back(std::fabs(true_loss[k] - inference.loss[k]));
    }
  }
  [[nodiscard]] double detection_rate() const {
    return congested == 0 ? 1.0 : static_cast<double>(hits) / congested;
  }
  [[nodiscard]] double false_positive_rate() const {
    return diagnosed == 0 ? 0.0
                          : static_cast<double>(false_alarms) / diagnosed;
  }
  [[nodiscard]] double mean_abs_err() const {
    double total = 0.0;
    for (const double e : abs_err) total += e;
    return abs_err.empty() ? 0.0 : total / static_cast<double>(abs_err.size());
  }
};

/// What one timed phase leaves behind.
struct TimedPhase {
  std::vector<double> steady_ms;
  std::vector<double> event_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  // Read at the end of the timed phase, before the recovery cycles, so the
  // checkpoint images and the replicas they restore are not counted.
  double peak_rss_mb = 0.0;
  std::size_t refactorizations = 0;
  Accuracy accuracy;

  void record(bool ok, bool event, double ms) {
    ++attempted;
    if (!ok) {
      ++failed;
    } else {
      (event ? event_ms : steady_ms).push_back(ms);
    }
  }
};

/// Phase-2 kept-set statistics read off each inference's `removed` flags.
struct KeptTracker {
  double kept_sum = 0.0;
  std::size_t relearns = 0;
  std::size_t reused = 0;
  std::vector<bool> previous;

  void add(const core::LossInference& inference) {
    std::size_t kept = 0;
    for (const bool removed : inference.removed) kept += removed ? 0 : 1;
    kept_sum += static_cast<double>(kept);
    if (relearns > 0 && inference.removed == previous) ++reused;
    ++relearns;
    previous = inference.removed;
  }
  [[nodiscard]] double mean_kept() const {
    return relearns == 0 ? 0.0 : kept_sum / static_cast<double>(relearns);
  }
  [[nodiscard]] double reuse_ratio() const {
    return relearns < 2 ? 0.0
                        : static_cast<double>(reused) /
                              static_cast<double>(relearns - 1);
  }
};

struct RecoverStats {
  std::vector<double> save_s;
  std::vector<double> restore_s;
  std::vector<double> total_s;
  std::size_t bytes = 0;
  ParityGuard parity;
};

/// Warm-spare failover, `cycles` times: save the live object in
/// memory, let it diagnose the next input as the reference, drop it, then
/// parse the image, build a fresh object and restore into it.  The restored
/// object must diagnose the same input bit-identically and replaces the
/// live one.  `advance` fetches the cycle's input, `step` diagnoses it.
template <typename Object, typename Advance, typename Step, typename Rebuild>
RecoverStats recover_cycles(std::size_t cycles, std::unique_ptr<Object>& live,
                            Advance advance, Step step, Rebuild rebuild) {
  RecoverStats stats;
  for (std::size_t c = 0; c < cycles; ++c) {
    const util::Timer save;
    io::CheckpointWriter writer;
    live->save_state(writer);
    auto image = writer.finish();
    const double save_s = save.seconds();
    if (c == 0) stats.bytes = image.size();
    advance();
    const Inference expected = step(*live);
    live.reset();
    const util::Timer restore;
    auto reader = io::CheckpointReader::from_bytes(std::move(image));
    std::unique_ptr<Object> fresh = rebuild();
    fresh->restore_state(reader);
    const double restore_s = restore.seconds();
    stats.parity.check(expected, step(*fresh));
    live = std::move(fresh);
    stats.save_s.push_back(save_s);
    stats.restore_s.push_back(restore_s);
    stats.total_s.push_back(save_s + restore_s);
  }
  return stats;
}

/// The end-to-end result of an untraced run.
void report_end_to_end(RunResult& out, const std::vector<double>& setup_s,
                       const TimedPhase& timed, const RecoverStats& recover) {
  require(out, recover.parity.mismatches() == 0,
          "a restored replica diagnosed differently from the original");
  const auto p90 = tail_percentile(timed.steady_ms, 0.9);
  require(out, p90.has_value(), "too few steady ticks for tick_p90_ms");
  const auto& a = timed.accuracy;
  const double err_p90 = a.abs_err.empty() ? 0.0 : percentile(a.abs_err, 0.9);
  const double err_mean = a.mean_abs_err();
  out.attempted = timed.attempted;
  out.failed = timed.failed;
  auto& m = out.metrics;
  add_metric(m, "tick_p50_ms", median(timed.steady_ms), "ms");
  add_metric(m, "tick_p90_ms", p90.value_or(0.0), "ms");
  add_metric(m, "snapshots_per_s",
             static_cast<double>(timed.attempted - timed.failed) / timed.wall_s,
             "1/s");
  add_metric(m, "setup_s", median(setup_s), "s");
  add_metric(m, "recover_s", median(recover.total_s), "s");
  add_metric(m, "peak_rss_mb", timed.peak_rss_mb, "MB");
  add_metric(m, "detection_rate", a.detection_rate(), "ratio");
  add_metric(m, "loss_abs_err_mean", err_mean, "loss");
  auto& x = out.extra;
  if (!timed.event_ms.empty()) {
    add_metric(x, "event_tick_p50_ms", median(timed.event_ms), "ms");
  }
  add_metric(x, "false_positive_rate", a.false_positive_rate(), "ratio");
  add_metric(x, "loss_abs_err_p90", err_p90, "loss");
  add_metric(x, "tick_fail_ratio",
             static_cast<double>(timed.failed) /
                 static_cast<double>(timed.attempted),
             "ratio");
  add_metric(x, "steady_ticks", static_cast<double>(timed.steady_ms.size()),
             "count");
  add_metric(x, "event_ticks", static_cast<double>(timed.event_ms.size()),
             "count");
  auto& d = out.deterministic;
  add_metric(d, "detection_rate", a.detection_rate(), "ratio");
  add_metric(d, "false_positive_rate", a.false_positive_rate(), "ratio");
  add_metric(d, "loss_abs_err_mean", err_mean, "loss");
  add_metric(d, "loss_abs_err_p90", err_p90, "loss");
  add_metric(d, "core.refactorizations",
             static_cast<double>(timed.refactorizations), "count");
  add_metric(d, "io.checkpoint_bytes", static_cast<double>(recover.bytes),
             "bytes");
}

/// Per-layer figures of a traced run: mean milliseconds per timed tick for
/// each timed call (0 where the layer is absent or not separately
/// observable on that workload), counters over the whole traced pass.
struct LayerFigures {
  double simulate_ms = 0, ingest_ms = 0, accumulate_ms = 0, refresh_ms = 0,
         solve_ms = 0, eliminate_ms = 0, infer_ms = 0, relearn_ms = 0;
  double event_total_ms = 0;  // event apply time over the timed phase
  std::size_t event_ticks = 0;
  double flip_ratio = 0;
  std::size_t refactorizations = 0, pcg_iterations = 0, rank1_updates = 0,
              pairs = 0;
  KeptTracker kept;
  std::vector<double> traced_ms;    // steady traced ticks
  std::vector<double> untraced_ms;  // steady ticks of the reference pass
  double tick_total_ms = 0;         // every timed traced tick
  std::size_t ticks = 0;
  ParityGuard parity;
};

void report_per_layer(RunResult& out, const LayerFigures& f,
                      const RecoverStats& recover) {
  require(out, recover.parity.mismatches() == 0,
          "a restored replica diagnosed differently from the original");
  require(out, f.parity.mismatches() == 0,
          "the traced pass diverged from the untraced reference");
  const auto share = [&](double per_tick_ms) {
    return per_tick_ms * static_cast<double>(f.ticks) / f.tick_total_ms;
  };
  const double traced_p50 = median(f.traced_ms);
  auto& m = out.metrics;
  add_metric(m, "sim.simulate_ms", f.simulate_ms, "ms");
  add_metric(m, "io.ingest_ms", f.ingest_ms, "ms");
  add_metric(m, "stats.accumulate_ms", f.accumulate_ms, "ms");
  add_metric(m, "core.refresh_ms", f.refresh_ms, "ms");
  add_metric(m, "core.flip_ratio", f.flip_ratio, "ratio");
  add_metric(m, "core.solve_ms", f.solve_ms, "ms");
  add_metric(m, "core.refactorizations",
             static_cast<double>(f.refactorizations), "count");
  add_metric(m, "core.pcg_iterations", static_cast<double>(f.pcg_iterations),
             "count");
  add_metric(m, "core.rank1_updates", static_cast<double>(f.rank1_updates),
             "count");
  add_metric(m, "core.eliminate_ms", f.eliminate_ms, "ms");
  add_metric(m, "core.kept_links", f.kept.mean_kept(), "count");
  add_metric(m, "core.elimination_reuse_ratio", f.kept.reuse_ratio(), "ratio");
  add_metric(m, "core.infer_ms", f.infer_ms, "ms");
  add_metric(m, "core.relearn_ms", f.relearn_ms, "ms");
  add_metric(m, "scenario.event_ms",
             f.event_ticks == 0
                 ? 0.0
                 : f.event_total_ms / static_cast<double>(f.event_ticks),
             "ms");
  add_metric(m, "io.checkpoint_save_s", median(recover.save_s), "s");
  add_metric(m, "io.checkpoint_restore_s", median(recover.restore_s), "s");
  add_metric(m, "io.checkpoint_mb",
             static_cast<double>(recover.bytes) / (1024.0 * 1024.0), "MB");
  add_metric(m, "sim.simulate.share", share(f.simulate_ms), "ratio");
  add_metric(m, "io.ingest.share", share(f.ingest_ms), "ratio");
  add_metric(m, "stats.accumulate.share", share(f.accumulate_ms), "ratio");
  add_metric(m, "core.refresh.share", share(f.refresh_ms), "ratio");
  add_metric(m, "core.solve.share", share(f.solve_ms), "ratio");
  add_metric(m, "core.eliminate.share", share(f.eliminate_ms), "ratio");
  add_metric(m, "core.infer.share", share(f.infer_ms), "ratio");
  add_metric(m, "core.relearn.share", share(f.relearn_ms), "ratio");
  add_metric(m, "scenario.event.share", f.event_total_ms / f.tick_total_ms,
             "ratio");
  add_metric(m, "core.pairs", static_cast<double>(f.pairs), "count");
  add_metric(m, "trace.tick_ms", traced_p50, "ms");
  add_metric(m, "trace.overhead_frac", traced_p50 / median(f.untraced_ms) - 1.0,
             "ratio");
  add_metric(m, "trace.parity_mismatches",
             static_cast<double>(f.parity.mismatches()), "count");
  out.attempted = f.parity.checked();
  out.failed = f.parity.mismatches();
  add_metric(out.deterministic, "core.refactorizations",
             static_cast<double>(f.refactorizations), "count");
  add_metric(out.deterministic, "io.checkpoint_bytes",
             static_cast<double>(recover.bytes), "bytes");
}

// ---- Feeds: where a flat monitor's inputs come from -----------------------

/// tree_refactor: SnapshotSimulator::next inside the tick.
class SimulatorFeed {
 public:
  SimulatorFeed(const net::Graph& g, const net::ReducedRoutingMatrix& rrm,
                std::uint64_t seed)
      : sim_(g, rrm, sim_config(Kind::kTreeRefactor), seed) {
    apply_loss_map(Kind::kTreeRefactor, sim_, rrm.link_count());
  }
  std::span<const double> next() {
    snapshot_ = sim_.next();
    return snapshot_.path_log_trans;
  }
  [[nodiscard]] std::span<const double> true_loss() const {
    return snapshot_.link_true_loss;
  }
  [[nodiscard]] const std::vector<bool>& congested() const {
    return snapshot_.link_congested;
  }

 private:
  sim::SnapshotSimulator sim_;
  sim::Snapshot snapshot_;
};

/// Calls fn(snapshot) for the first `rows` overlay_replay snapshots.
template <typename Fn>
void generate_replay_rows(const Universe& u, std::uint64_t seed,
                          std::size_t rows, Fn&& fn) {
  const net::ReducedRoutingMatrix rrm(u.graph, u.paths);
  sim::SnapshotSimulator sim(u.graph, rrm, sim_config(Kind::kOverlayReplay),
                             seed);
  apply_loss_map(Kind::kOverlayReplay, sim, rrm.link_count());
  for (std::size_t t = 0; t < rows; ++t) fn(sim.next());
}

/// overlay_replay inputs, generated before timing: an LTBT trace of Y rows
/// with the ground truth of every row kept beside it.  The trace file is
/// removed when the inputs go out of scope.
class ReplayInputs {
 public:
  ReplayInputs(const Universe& u, std::uint64_t seed, std::size_t rows,
               std::string file)
      : file_(std::move(file)) {
    io::BinaryTraceWriter writer(file_, u.paths.size(),
                                 /*log_transformed=*/true);
    generate_replay_rows(u, seed, rows, [&](const sim::Snapshot& s) {
      writer.append(s.path_log_trans);
      true_loss_.push_back(s.link_true_loss);
      congested_.push_back(s.link_congested);
    });
    writer.finish();
  }
  ReplayInputs(const ReplayInputs&) = delete;
  ReplayInputs& operator=(const ReplayInputs&) = delete;
  ~ReplayInputs() {
    std::error_code ignored;
    std::filesystem::remove(file_, ignored);
  }

  [[nodiscard]] const std::string& file() const { return file_; }
  [[nodiscard]] std::span<const double> true_loss(std::size_t row) const {
    return true_loss_[row];
  }
  [[nodiscard]] const std::vector<bool>& congested(std::size_t row) const {
    return congested_[row];
  }

 private:
  std::string file_;
  std::vector<linalg::Vector> true_loss_;
  std::vector<std::vector<bool>> congested_;
};

/// overlay_replay: BinaryTraceReader::row inside the tick.
class ReplayFeed {
 public:
  explicit ReplayFeed(const ReplayInputs& inputs)
      : inputs_(&inputs), reader_(io::BinaryTraceReader::open(inputs.file())) {}
  std::span<const double> next() {
    if (row_ >= reader_.snapshots()) {
      throw std::logic_error("replay trace exhausted");
    }
    return reader_.row(row_++);
  }
  [[nodiscard]] std::span<const double> true_loss() const {
    return inputs_->true_loss(row_ - 1);
  }
  [[nodiscard]] const std::vector<bool>& congested() const {
    return inputs_->congested(row_ - 1);
  }

 private:
  const ReplayInputs* inputs_;
  io::BinaryTraceReader reader_;
  std::size_t row_ = 0;
};

// ---- Flat monitor workloads (tree_refactor, overlay_replay) ---------------

template <typename Feed>
struct FlatSession {
  std::unique_ptr<net::ReducedRoutingMatrix> rrm;
  std::unique_ptr<core::LiaMonitor> monitor;
  std::unique_ptr<Feed> feed;
  Inference first;
};

/// Program set-up: routing reduction, monitor construction, feed open and
/// the window fill, up to and including the first diagnosis.
template <typename Feed, typename MakeFeed>
FlatSession<Feed> open_flat(Kind kind, const Universe& u,
                            const MakeFeed& make_feed, Checksum& checksum) {
  FlatSession<Feed> s;
  s.rrm = std::make_unique<net::ReducedRoutingMatrix>(u.graph, u.paths);
  s.monitor = std::make_unique<core::LiaMonitor>(s.rrm->matrix(),
                                                 monitor_options(kind));
  s.feed = make_feed(*s.rrm);
  for (std::size_t t = 0; !s.first; ++t) {
    if (t > kWindow) throw std::logic_error("no diagnosis after the window");
    const auto y = s.feed->next();
    checksum.add(y);
    s.first = s.monitor->observe(y);
  }
  return s;
}

/// Times of one rebuilt tick, in milliseconds.
struct RebuiltTick {
  double feed_ms = 0, refresh_ms = 0, solve_ms = 0, eliminate_ms = 0,
         infer_ms = 0, accumulate_ms = 0, tick_ms = 0;
  double flip_ratio = 0;
};

/// The flat observe() tick rebuilt from the public classes LiaMonitor
/// composes, in its order: refresh -> solve -> Lia::adopt -> Lia::infer,
/// then push, each call timed.
class RebuiltMonitor {
 public:
  RebuiltMonitor(const linalg::SparseBinaryMatrix& r, Kind kind)
      : options_(resolved_options(r, kind)),
        moments_(r.rows(),
                 {.window = kWindow,
                  .refresh_every = monitor_options(kind).refresh_every,
                  .threads = kThreads}),
        equations_(r, options_.variance),
        lia_(r, options_) {}

  template <typename Feed>
  Inference tick(Feed& feed, RebuiltTick& t, Checksum& checksum) {
    const util::Timer whole;
    util::Timer part;
    const auto y = feed.next();
    t.feed_ms = part.seconds() * 1e3;
    Inference inference;
    if (moments_.count() == kWindow) {
      part.reset();
      equations_.refresh(moments_);
      t.refresh_ms = part.seconds() * 1e3;
      if (const auto* store = equations_.pair_store();
          store != nullptr && store->pair_count() > 0) {
        t.flip_ratio = static_cast<double>(equations_.pending_flips()) /
                       static_cast<double>(store->pair_count());
      }
      part.reset();
      auto estimate = equations_.solve();
      t.solve_ms = part.seconds() * 1e3;
      part.reset();
      lia_.adopt(std::move(estimate));
      t.eliminate_ms = part.seconds() * 1e3;
      part.reset();
      inference = lia_.infer(y);
      t.infer_ms = part.seconds() * 1e3;
    }
    part.reset();
    moments_.push(y);
    t.accumulate_ms = part.seconds() * 1e3;
    t.tick_ms = whole.seconds() * 1e3;
    checksum.add(y);
    return inference;
  }

  [[nodiscard]] const core::StreamingNormalEquations& equations() const {
    return equations_;
  }

 private:
  // LiaMonitor freezes the negative-covariance policy on the initial path
  // count before it builds its stack; the rebuild does the same.
  static core::LiaOptions resolved_options(const linalg::SparseBinaryMatrix& r,
                                           Kind kind) {
    core::LiaOptions options = monitor_options(kind).lia;
    options.variance.negatives =
        core::resolve_negative_policy(options.variance, r.rows())
            ? core::NegativeCovariancePolicy::kDrop
            : core::NegativeCovariancePolicy::kKeep;
    return options;
  }

  core::LiaOptions options_;
  stats::StreamingMoments moments_;
  core::StreamingNormalEquations equations_;
  core::Lia lia_;
};

template <typename Feed, typename MakeFeed>
void run_flat(const WorkloadDef& w, const Universe& u, const MakeFeed& make_feed,
              double tl, std::size_t n, bool trace, RunResult& out) {
  const Kind kind = w.kind;
  const auto options = monitor_options(kind);
  const auto rebuild = [&](const FlatSession<Feed>& s) {
    return [&s, &options] {
      return std::make_unique<core::LiaMonitor>(s.rrm->matrix(), options);
    };
  };
  std::span<const double> y_cycle;
  const auto advance = [&](Feed& feed) {
    return [&y_cycle, &feed] { y_cycle = feed.next(); };
  };
  const auto step = [&](core::LiaMonitor& m) { return m.observe(y_cycle); };
  Checksum checksum;

  if (!trace) {
    std::vector<double> setup_s;
    std::optional<FlatSession<Feed>> session;
    ParityGuard setup_parity;
    for (std::size_t rep = 0; rep < w.setups; ++rep) {
      const Inference previous = session ? session->first : Inference{};
      session.reset();  // the previous stack is freed before the next
      checksum = Checksum();
      const util::Timer sw;
      session.emplace(open_flat<Feed>(kind, u, make_feed, checksum));
      setup_s.push_back(sw.seconds());
      if (rep > 0) setup_parity.check(previous, session->first);
    }
    require(out, setup_parity.mismatches() == 0,
            "repeated set-ups diagnosed the first snapshot differently");

    auto& monitor = session->monitor;
    auto& feed = *session->feed;
    const std::size_t links = session->rrm->link_count();
    TimedPhase timed;
    const util::Timer wall;
    for (std::size_t i = 0; i < n; ++i) {
      const util::Timer tick;
      const auto y = feed.next();
      Inference inference;
      bool threw = false;
      try {
        inference = monitor->observe(y);
      } catch (const std::exception&) {
        threw = true;
      }
      const double ms = tick.seconds() * 1e3;
      checksum.add(y);
      const bool ok = !threw && inference_valid(inference, links);
      timed.record(ok, false, ms);
      if (ok) {
        timed.accuracy.add(*inference, feed.true_loss(), feed.congested(), tl);
      }
    }
    timed.wall_s = wall.seconds();
    timed.peak_rss_mb = peak_rss_mb();
    timed.refactorizations =
        monitor->streaming_equations()->refactorizations();
    const auto recover = recover_cycles(w.recoveries, monitor, advance(feed),
                                        step, rebuild(*session));
    out.input_checksum = checksum.value();
    report_end_to_end(out, setup_s, timed, recover);
    return;
  }

  // Traced run.  Pass A: the untraced LiaMonitor over the same inputs; its
  // inferences are the parity reference and its tick the base of
  // trace.overhead_frac.
  LayerFigures f;
  std::vector<Inference> reference;
  RecoverStats recover;
  {
    auto session = open_flat<Feed>(kind, u, make_feed, checksum);
    reference.push_back(session.first);
    for (std::size_t i = 0; i < n; ++i) {
      const util::Timer tick;
      const auto y = session.feed->next();
      reference.push_back(session.monitor->observe(y));
      f.untraced_ms.push_back(tick.seconds() * 1e3);
      checksum.add(y);
    }
    recover = recover_cycles(w.recoveries, session.monitor,
                             advance(*session.feed), step, rebuild(session));
  }

  // Pass B: the rebuilt tick over a fresh feed of the same inputs.
  const net::ReducedRoutingMatrix rrm(u.graph, u.paths);
  auto feed = make_feed(rrm);
  RebuiltMonitor rebuilt(rrm.matrix(), kind);
  Checksum traced_checksum;
  std::vector<RebuiltTick> ticks;
  for (std::size_t t = 0; t < kWindow + 1 + n; ++t) {
    RebuiltTick tick;
    const Inference inference = rebuilt.tick(*feed, tick, traced_checksum);
    if (t < kWindow) continue;
    f.parity.check(reference[t - kWindow], inference);
    if (t == kWindow) continue;  // the first diagnosis belongs to set-up
    ticks.push_back(tick);
    if (inference) f.kept.add(*inference);
  }
  require(out, traced_checksum.value() == checksum.value(),
          "traced and untraced passes saw different inputs");
  const auto per_tick = [&](double RebuiltTick::*field) {
    double s = 0.0;
    for (const auto& t : ticks) s += t.*field;
    return s / static_cast<double>(ticks.size());
  };
  const double feed_ms = per_tick(&RebuiltTick::feed_ms);
  (kind == Kind::kTreeRefactor ? f.simulate_ms : f.ingest_ms) = feed_ms;
  f.accumulate_ms = per_tick(&RebuiltTick::accumulate_ms);
  f.refresh_ms = per_tick(&RebuiltTick::refresh_ms);
  f.solve_ms = per_tick(&RebuiltTick::solve_ms);
  f.eliminate_ms = per_tick(&RebuiltTick::eliminate_ms);
  f.infer_ms = per_tick(&RebuiltTick::infer_ms);
  f.relearn_ms = f.refresh_ms + f.solve_ms + f.eliminate_ms + f.infer_ms;
  f.flip_ratio = per_tick(&RebuiltTick::flip_ratio);
  f.ticks = ticks.size();
  for (const auto& t : ticks) {
    f.tick_total_ms += t.tick_ms;
    f.traced_ms.push_back(t.tick_ms);
  }
  const auto& eqs = rebuilt.equations();
  f.refactorizations = eqs.refactorizations();
  f.pcg_iterations = eqs.refine_iterations();
  f.rank1_updates = eqs.rank1_updates();
  f.pairs = eqs.pair_store() != nullptr ? eqs.pair_store()->pair_count() : 0;
  out.input_checksum = checksum.value();
  report_per_layer(out, f, recover);
}

// ---- overlay_churn --------------------------------------------------------

scenario::ScenarioSpec churn_spec(std::uint64_t seed, std::size_t timed,
                                  std::size_t recoveries,
                                  std::size_t link_count,
                                  std::size_t path_count) {
  scenario::ScenarioSpec spec;
  spec.name = "overlay_churn";
  spec.topology.kind = scenario::TopologySpec::Kind::kOverlay;
  const auto overlay = overlay_config();
  spec.topology.hosts = overlay.hosts;
  spec.topology.as_count = overlay.as_count;
  spec.topology.routers_per_as = overlay.routers_per_as;
  spec.topology.seed = kTopologySeed;
  spec.window = kWindow;
  const auto config = sim_config(Kind::kOverlayChurn);
  spec.p = config.p;
  spec.probes = config.probes_per_snapshot;
  spec.seed = seed;
  // Set-up ends at the first diagnosis (tick kWindow); events run from the
  // next tick through the timed phase and the recovery cycles.  One cycle
  // is a path flap (leave, join), a link flap (down, up), and a grow burst.
  const std::size_t first_event = kWindow + 1;
  spec.ticks = first_event + timed + recoveries;
  const std::size_t events =
      (spec.ticks - first_event + kChurnCadence - 1) / kChurnCadence;
  spec.reserve_paths = (events / kChurnCycle) * kGrowBurst;
  const std::size_t initial = path_count - spec.reserve_paths;
  // The loss map enters as link_down events at tick 0.  A rate of exactly
  // 0 would mean the spec's default down_loss, so it is nudged up.
  const auto rates = loss_map(Kind::kOverlayChurn, link_count);
  const auto map_rate = [&](std::size_t k) {
    return rates[k] > 0.0 ? rates[k] : 1e-9;
  };
  for (std::size_t k = 0; k < link_count; ++k) {
    scenario::Event e;
    e.type = scenario::EventType::kLinkDown;
    e.link = k;
    e.value = map_rate(k);
    spec.events.push_back(e);
  }
  stats::Rng rng(stats::splitmix64(seed));
  std::size_t path = 0;
  std::size_t link = 0;
  for (std::size_t j = 0; j < events; ++j) {
    scenario::Event e;
    e.tick = first_event + j * kChurnCadence;
    switch (j % kChurnCycle) {
      case 0:
        path = rng.index(initial);
        e.type = scenario::EventType::kPathLeave;
        e.path = path;
        break;
      case 1:
        e.type = scenario::EventType::kPathJoin;
        e.path = path;
        break;
      case 2:
        link = rng.index(link_count);
        e.type = scenario::EventType::kLinkDown;
        e.link = link;
        break;
      case 3: {
        // link_up clears the link's forcing, which would also drop its map
        // rate; a link_down at the same tick (applied after it, in spec
        // order) puts the map rate back, so the map stays fixed.
        scenario::Event up = e;
        up.type = scenario::EventType::kLinkUp;
        up.link = link;
        spec.events.push_back(up);
        e.type = scenario::EventType::kLinkDown;
        e.link = link;
        e.value = map_rate(link);
        break;
      }
      default:
        e.type = scenario::EventType::kGrow;
        e.count = kGrowBurst;
        break;
    }
    spec.events.push_back(e);
  }
  return spec;
}

scenario::ScenarioSpec churn_spec(std::uint64_t seed, std::size_t timed,
                                  std::size_t recoveries) {
  const auto u = overlay_universe();
  const net::ReducedRoutingMatrix rrm(u.graph, u.paths);
  return churn_spec(seed, timed, recoveries, rrm.link_count(),
                    rrm.path_count());
}

Checksum spec_checksum(const scenario::ScenarioSpec& spec) {
  Checksum checksum;
  checksum.add(spec.seed);
  checksum.add(spec.ticks);
  checksum.add(spec.reserve_paths);
  for (const auto& e : spec.events) {
    checksum.add(e.tick);
    checksum.add(static_cast<std::uint64_t>(e.type));
    checksum.add(e.path);
    checksum.add(e.link);
    checksum.add(e.count);
    checksum.add(std::span<const double>(&e.value, 1));
  }
  return checksum;
}

struct ChurnSession {
  std::unique_ptr<scenario::ScenarioRunner> runner;
  Inference first;
};

/// Program set-up: runner construction (universe, simulator, monitor) and
/// the window fill, up to and including the first diagnosis.
ChurnSession open_churn(const scenario::ScenarioSpec& spec,
                        const core::MonitorOptions& options,
                        Checksum& checksum) {
  ChurnSession s;
  s.runner = std::make_unique<scenario::ScenarioRunner>(spec, options);
  for (std::size_t t = 0; !s.first; ++t) {
    if (t > kWindow) throw std::logic_error("no diagnosis after the window");
    s.first = s.runner->step();
    checksum.add(s.runner->last_snapshot().path_log_trans);
  }
  return s;
}

/// One scenario tick (events, then simulation, then the monitor), timed.
struct ChurnTick {
  Inference inference;
  bool event = false;
  bool threw = false;
  double ms = 0.0;
};

ChurnTick churn_step(scenario::ScenarioRunner& runner, Checksum& checksum) {
  ChurnTick t;
  const std::size_t before = runner.events_applied();
  const util::Timer tick;
  try {
    t.inference = runner.step();
  } catch (const std::exception&) {
    t.threw = true;
  }
  t.ms = tick.seconds() * 1e3;
  t.event = runner.events_applied() != before;
  checksum.add(runner.last_snapshot().path_log_trans);
  return t;
}

void run_churn(const WorkloadDef& w, std::uint64_t seed, std::size_t n,
               bool trace, RunResult& out) {
  const auto spec = churn_spec(seed, n, w.recoveries);
  auto options = monitor_options(Kind::kOverlayChurn);
  const auto rebuild = [&] {
    return std::make_unique<scenario::ScenarioRunner>(spec, options);
  };
  const auto step = [](scenario::ScenarioRunner& r) { return r.step(); };
  const auto no_input = [] {};  // the runner generates its own inputs
  Checksum checksum;

  if (!trace) {
    std::vector<double> setup_s;
    std::optional<ChurnSession> session;
    ParityGuard setup_parity;
    for (std::size_t rep = 0; rep < w.setups; ++rep) {
      const Inference previous = session ? session->first : Inference{};
      session.reset();
      checksum = spec_checksum(spec);
      const util::Timer sw;
      session.emplace(open_churn(spec, options, checksum));
      setup_s.push_back(sw.seconds());
      if (rep > 0) setup_parity.check(previous, session->first);
    }
    require(out, setup_parity.mismatches() == 0,
            "repeated set-ups diagnosed the first snapshot differently");

    auto& runner = session->runner;
    const double tl = runner->simulator().config().loss_model.threshold_tl;
    TimedPhase timed;
    const util::Timer wall;
    for (std::size_t i = 0; i < n; ++i) {
      const auto t = churn_step(*runner, checksum);
      const auto links = runner->monitor().routing().cols();
      const bool ok = !t.threw && inference_valid(t.inference, links);
      timed.record(ok, t.event, t.ms);
      if (ok) {
        const auto& truth = runner->last_snapshot();
        timed.accuracy.add(*t.inference, truth.link_true_loss,
                           truth.link_congested, tl);
      }
    }
    timed.wall_s = wall.seconds();
    timed.peak_rss_mb = peak_rss_mb();
    timed.refactorizations =
        runner->monitor().streaming_equations()->refactorizations();
    require(out, !timed.event_ms.empty(), "no event ticks were timed");
    const auto recover =
        recover_cycles(w.recoveries, runner, no_input, step, rebuild);
    out.input_checksum = checksum.value();
    report_end_to_end(out, setup_s, timed, recover);
    return;
  }

  // Traced run.  Pass A: the untraced runner (parity reference, overhead
  // base, checkpoint figures).
  LayerFigures f;
  std::vector<Inference> reference;
  RecoverStats recover;
  checksum = spec_checksum(spec);
  {
    auto session = open_churn(spec, options, checksum);
    reference.push_back(session.first);
    for (std::size_t i = 0; i < n; ++i) {
      auto t = churn_step(*session.runner, checksum);
      if (!t.event) f.untraced_ms.push_back(t.ms);
      reference.push_back(std::move(t.inference));
    }
    recover =
        recover_cycles(w.recoveries, session.runner, no_input, step, rebuild);
  }

  // Pass B: the same run with an obs::Registry attached; the phases the
  // runner and monitor already publish give the layer split.
  obs::Registry registry;
  options.telemetry = &registry;
  Checksum traced_checksum = spec_checksum(spec);
  auto session = open_churn(spec, options, traced_checksum);
  f.parity.check(reference[0], session.first);
  const auto seconds_of = [&](const std::string& name) {
    return registry.histogram(name).sum();
  };
  const auto event_seconds = [&] {
    double s = 0.0;
    for (std::size_t t = 0; t < scenario::kEventTypeCount; ++t) {
      s += seconds_of(
          std::string("scenario.event.") +
          scenario::event_type_name(static_cast<scenario::EventType>(t)) +
          ".seconds");
    }
    return s;
  };
  const double ingest0 = seconds_of("span.ingest.seconds");
  const double accumulate0 = seconds_of("span.accumulate.seconds");
  const double solve0 = seconds_of("span.solve.seconds");
  const double events0 = event_seconds();
  for (std::size_t i = 0; i < n; ++i) {
    auto t = churn_step(*session.runner, traced_checksum);
    f.parity.check(reference[i + 1], t.inference);
    f.tick_total_ms += t.ms;
    if (t.event) {
      ++f.event_ticks;
    } else {
      f.traced_ms.push_back(t.ms);
    }
    if (t.inference) f.kept.add(*t.inference);
  }
  require(out, traced_checksum.value() == checksum.value(),
          "traced and untraced passes saw different inputs");
  const double ticks = static_cast<double>(n);
  f.ticks = n;
  f.simulate_ms = (seconds_of("span.ingest.seconds") - ingest0) * 1e3 / ticks;
  f.accumulate_ms =
      (seconds_of("span.accumulate.seconds") - accumulate0) * 1e3 / ticks;
  f.relearn_ms = (seconds_of("span.solve.seconds") - solve0) * 1e3 / ticks;
  f.event_total_ms = (event_seconds() - events0) * 1e3;
  const auto* eqs = session.runner->monitor().streaming_equations();
  f.refactorizations = eqs->refactorizations();
  f.pcg_iterations = eqs->refine_iterations();
  f.rank1_updates = eqs->rank1_updates();
  f.pairs = eqs->pair_store()->pair_count();
  out.input_checksum = checksum.value();
  report_per_layer(out, f, recover);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& w : kWorkloads) v.emplace_back(w.name);
    return v;
  }();
  return names;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "tick_p50_ms", "tick_p90_ms", "snapshots_per_s", "setup_s",
      "recover_s",   "peak_rss_mb", "detection_rate",  "loss_abs_err_mean"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "sim.simulate_ms",         "io.ingest_ms",
      "stats.accumulate_ms",     "core.refresh_ms",
      "core.flip_ratio",         "core.solve_ms",
      "core.refactorizations",   "core.pcg_iterations",
      "core.rank1_updates",      "core.eliminate_ms",
      "core.kept_links",         "core.elimination_reuse_ratio",
      "core.infer_ms",           "core.relearn_ms",
      "scenario.event_ms",       "io.checkpoint_save_s",
      "io.checkpoint_restore_s", "io.checkpoint_mb",
      "sim.simulate.share",      "io.ingest.share",
      "stats.accumulate.share",  "core.refresh.share",
      "core.solve.share",        "core.eliminate.share",
      "core.infer.share",        "core.relearn.share",
      "scenario.event.share",    "core.pairs",
      "trace.tick_ms",           "trace.overhead_frac",
      "trace.parity_mismatches"};
  return names;
}

std::size_t timed_ticks(const std::string& workload, double seconds) {
  const auto& w = find_workload(workload);
  const auto nominal =
      static_cast<std::size_t>(std::ceil(seconds * w.ticks_per_second));
  return std::max(w.min_ticks, nominal);
}

RunResult run(const RunConfig& config) {
  const auto& w = find_workload(config.workload);
  util::set_default_threads(kThreads);
  const std::size_t n = timed_ticks(config.workload, config.seconds);
  const double tl = sim_config(w.kind).loss_model.threshold_tl;
  RunResult out;
  switch (w.kind) {
    case Kind::kTreeRefactor: {
      const auto u = tree_universe();
      run_flat<SimulatorFeed>(
          w, u,
          [&](const net::ReducedRoutingMatrix& rrm) {
            return std::make_unique<SimulatorFeed>(u.graph, rrm, config.seed);
          },
          tl, n, config.trace, out);
      break;
    }
    case Kind::kOverlayReplay: {
      const auto u = overlay_universe();
      std::filesystem::create_directories(config.scratch_dir);
      const auto file = std::filesystem::path(config.scratch_dir) /
                        ("overlay_replay-" + std::to_string(config.seed) +
                         "-" + std::to_string(::getpid()) + ".ltbt");
      const ReplayInputs inputs(u, config.seed,
                                kWindow + 1 + n + w.recoveries,
                                file.string());
      run_flat<ReplayFeed>(
          w, u,
          [&](const net::ReducedRoutingMatrix&) {
            return std::make_unique<ReplayFeed>(inputs);
          },
          tl, n, config.trace, out);
      break;
    }
    case Kind::kOverlayChurn:
      run_churn(w, config.seed, n, config.trace, out);
      break;
  }
  return out;
}

std::uint64_t input_checksum(const std::string& workload, std::uint64_t seed,
                             std::size_t rows) {
  const auto& w = find_workload(workload);
  util::set_default_threads(kThreads);
  Checksum checksum;
  switch (w.kind) {
    case Kind::kTreeRefactor: {
      const auto u = tree_universe();
      const net::ReducedRoutingMatrix rrm(u.graph, u.paths);
      SimulatorFeed feed(u.graph, rrm, seed);
      for (std::size_t t = 0; t < rows; ++t) checksum.add(feed.next());
      break;
    }
    case Kind::kOverlayReplay:
      generate_replay_rows(
          overlay_universe(), seed, rows,
          [&](const sim::Snapshot& s) { checksum.add(s.path_log_trans); });
      break;
    case Kind::kOverlayChurn: {
      const auto spec = churn_spec(seed, w.min_ticks, w.recoveries);
      checksum = spec_checksum(spec);
      scenario::ScenarioRunner runner(spec, monitor_options(w.kind));
      for (std::size_t t = 0; t < rows; ++t) {
        (void)runner.step();
        checksum.add(runner.last_snapshot().path_log_trans);
      }
      break;
    }
  }
  return checksum.value();
}

}  // namespace perfbench
