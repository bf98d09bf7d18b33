// Observability end to end: one k-partition run under a fully wired
// metrics stack, printing where the protocol spends its interactions.
//
// The run uses the jump engine with an ObsSink bound to a MetricsRegistry
// and a ConvergenceTimeline, plus the watch-mark instrumentation on g_k
// (the paper's NI'_i accounting: grouping i is complete when the count of
// the final member state g_k reaches i).  The console output shows
//
//  * the per-grouping phase breakdown -- interactions spent completing
//    each grouping and in the tail after the last one, the single-run
//    version of the paper's Figure 4,
//  * a sampled group-size trajectory from the timeline,
//  * engine counters (drawn/effective interactions) from the registry,
//  * a wall-clock phase profile (setup / simulate / report).
//
// --json writes the full machine-readable bundle: parameters, result,
// every counter/gauge/histogram, the timeline samples, and the phase
// table.  The bundle is a deterministic function of (n, k, seed, stride) --
// wall-clock times are deliberately excluded (they are printed to stdout
// only), so two runs with the same flags emit byte-identical JSON.  The
// test suite and docs/observability.md rely on that property.
//
//   ./observed_run [--n 120] [--k 4] [--seed 7] [--stride 0] [--json out.json]

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/sink.hpp"
#include "obs/timeline.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/transition_table.hpp"
#include "util/cli.hpp"

namespace {

struct Phase {
  std::string name;
  std::uint64_t interactions;
};

}  // namespace

int main(int argc, char** argv) {
  ppk::Cli cli("observed_run",
               "One observed k-partition run: metrics, timeline, and the "
               "per-grouping phase breakdown.");
  auto n_flag = cli.flag<int>("n", 120, "population size");
  auto k_flag = cli.flag<int>("k", 4, "number of groups");
  auto seed = cli.flag<long long>("seed", 7, "RNG seed");
  auto stride_flag = cli.flag<long long>(
      "stride", 0, "timeline sampling stride in interactions (0 = auto)");
  auto json_path = cli.flag<std::string>(
      "json", "", "write the deterministic metrics bundle to this path");
  cli.parse(argc, argv);
  const auto n = static_cast<std::uint32_t>(*n_flag);
  const auto k = static_cast<ppk::pp::GroupId>(*k_flag);

  ppk::obs::PhaseProfile wall_profile;
  ppk::obs::PhaseTimer wall(wall_profile);

  wall.enter("setup");
  const ppk::core::KPartitionProtocol protocol(k);
  const ppk::pp::TransitionTable table(protocol);
  ppk::pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;

  const std::uint64_t stride =
      *stride_flag > 0 ? static_cast<std::uint64_t>(*stride_flag)
                       : std::max<std::uint64_t>(
                             1, static_cast<std::uint64_t>(n) * n / 64);

  ppk::obs::MetricsRegistry registry;
  ppk::obs::ConvergenceTimeline timeline(protocol, stride);
  ppk::obs::ObsSink sink(registry, &timeline);
  timeline.seed(initial);

  ppk::pp::JumpSimulator sim(table, initial,
                             static_cast<std::uint64_t>(*seed));
  std::vector<std::uint64_t> marks;  // i-th entry: grouping i+1 completed
  sim.set_watch(protocol.g(k), &marks);
  sim.set_obs_sink(&sink);
  auto oracle = ppk::core::stable_pattern_oracle(protocol, n);

  wall.enter("simulate");
  const auto result = sim.run(*oracle);
  timeline.finish(sim.interactions(), sim.counts(), result.effective);
  wall.enter("report");

  // Per-grouping phases from the watch marks: grouping i spans from the
  // (i-1)-th completion to the i-th, the tail from the last completion to
  // stabilization (free-agent cleanup; Lemma 5's regime).
  std::vector<Phase> phases;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < marks.size(); ++i) {
    phases.push_back(
        {"grouping_" + std::to_string(i + 1), marks[i] - prev});
    prev = marks[i];
  }
  phases.push_back({"tail", result.interactions - prev});
  for (const auto& phase : phases) {
    registry.counter("phase." + phase.name).inc(phase.interactions);
  }

  std::printf("=== observed run: n = %u, k = %u, seed = %lld ===\n\n", n,
              static_cast<unsigned>(k), static_cast<long long>(*seed));
  std::printf("stabilized: %s after %llu interactions (%llu effective)\n",
              result.stabilized ? "yes" : "NO",
              static_cast<unsigned long long>(result.interactions),
              static_cast<unsigned long long>(result.effective));

  std::vector<std::uint32_t> group_sizes(protocol.num_groups(), 0);
  for (ppk::pp::StateId s = 0; s < sim.counts().size(); ++s) {
    group_sizes[protocol.group(s)] += sim.counts()[s];
  }
  std::printf("final group sizes:");
  for (auto g : group_sizes) std::printf(" %u", g);
  std::printf("\n\n");

  std::printf("phase breakdown (interactions per grouping, the single-run "
              "Figure 4):\n");
  for (const auto& phase : phases) {
    const double share = result.interactions == 0
                             ? 0.0
                             : 100.0 * static_cast<double>(phase.interactions) /
                                   static_cast<double>(result.interactions);
    std::printf("  %-12s %12llu  %5.1f%%\n", phase.name.c_str(),
                static_cast<unsigned long long>(phase.interactions), share);
  }

  std::printf("\ntimeline (%zu samples, stride %llu):\n",
              timeline.samples().size(),
              static_cast<unsigned long long>(stride));
  const auto& samples = timeline.samples();
  const std::size_t step = std::max<std::size_t>(1, samples.size() / 12);
  std::printf("  %12s  %8s  groups\n", "interaction", "spread");
  for (std::size_t i = 0; i < samples.size(); i += step) {
    const auto& sample = samples[i];
    std::printf("  %12llu  %8u ",
                static_cast<unsigned long long>(sample.interaction),
                sample.spread);
    for (auto g : sample.group_sizes) std::printf(" %4u", g);
    std::printf("\n");
  }

  std::printf("\nwall-clock profile (excluded from the JSON bundle -- it "
              "would break determinism):\n");
  wall.stop();
  wall_profile.print(std::cout);

  if (!json_path->empty()) {
    std::ofstream out(*json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path->c_str());
      return 1;
    }
    ppk::io::JsonWriter json(out);
    json.begin_object();
    json.member("schema", "ppk-observed-run-v1");
    json.key("params");
    json.begin_object();
    json.member("n", static_cast<std::uint64_t>(n));
    json.member("k", static_cast<std::uint64_t>(k));
    json.member("seed", static_cast<std::int64_t>(*seed));
    json.member("stride", stride);
    json.member("engine", "jump");
    json.end_object();
    json.key("result");
    json.begin_object();
    json.member("interactions", result.interactions);
    json.member("effective", result.effective);
    json.member("stabilized", result.stabilized);
    json.key("group_sizes");
    json.begin_array();
    for (auto g : group_sizes) json.value(g);
    json.end_array();
    json.end_object();
    json.key("phases");
    json.begin_array();
    for (const auto& phase : phases) {
      json.begin_object();
      json.member("phase", phase.name);
      json.member("interactions", phase.interactions);
      json.end_object();
    }
    json.end_array();
    json.key("metrics");
    registry.write_json(json);
    json.key("timeline");
    timeline.write_json(json);
    json.end_object();
    out << '\n';
    std::printf("\nmetrics bundle written to %s\n", json_path->c_str());
  }
  return 0;
}
