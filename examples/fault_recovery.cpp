// Population dynamics: what happens to the partition when the population
// changes *after* stabilization?  (The paper's motivation cites
// fault-tolerance [14]; this example shows precisely how far the protocol
// gets for free, where it genuinely breaks, and what the repo's recovery
// layer adds.)  Built on the fault grammar (pp/faults.hpp) and the churn
// rule of the agent-array engine (pp/agent_simulator.hpp).
//
//  * Part 1 -- agents JOINING in the designated initial state are absorbed
//    gracefully: a locked-in group set is never undone, the newcomers run
//    fresh builds and the population re-stabilizes to the uniform
//    partition of the larger n.  No recovery machinery needed.
//  * Part 2 -- agents LEAVING (crashes) break the bare protocol: the
//    departed agents' group slots are lost, and with them the Lemma 1
//    bookkeeping -- the protocol has designated initial states and is not
//    self-stabilizing, so the survivors stay stuck in a non-uniform
//    partition until the interaction budget runs out.  The example
//    demonstrates the failure honestly; the budget (not a hang) ends it.
//  * Part 3 -- the same crash under the self-healing wrapper
//    (core/recovery.hpp): the RecoveryManager seeds an epoch-reset wave,
//    every survivor restarts as an initial agent of the new epoch, and the
//    population re-converges to the uniform partition of the surviving n.
//
//   ./fault_recovery [--n 40] [--k 4] [--join 10] [--crash 7] [--seed 3]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/recovery.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/faults.hpp"
#include "pp/transition_table.hpp"
#include "util/cli.hpp"

namespace {

void print_sizes(const char* label,
                 const std::vector<std::uint32_t>& sizes) {
  std::printf("%-36s", label);
  for (auto size : sizes) std::printf(" %3u", size);
  const auto [lo, hi] = std::minmax_element(sizes.begin(), sizes.end());
  std::printf("   (spread %u)\n", *hi - *lo);
}

/// A schedule that crashes `count` agents at interaction `at` (targets
/// resolved uniformly by the engine's fault stream).
std::vector<ppk::pp::FaultEvent> crash_burst(std::uint64_t at,
                                             std::uint32_t count) {
  std::vector<ppk::pp::FaultEvent> schedule;
  for (std::uint32_t i = 0; i < count; ++i) {
    ppk::pp::FaultEvent event;
    event.at = at;
    event.kind = ppk::pp::FaultKind::kCrash;
    schedule.push_back(event);
  }
  return schedule;
}

}  // namespace

int main(int argc, char** argv) {
  ppk::Cli cli("fault_recovery",
               "Joins are absorbed; crashes break the bare protocol; the "
               "self-healing layer repairs them.");
  auto n_flag = cli.flag<int>("n", 40, "initial population size");
  auto k_flag = cli.flag<int>("k", 4, "number of groups");
  auto join_flag = cli.flag<int>("join", 10, "agents joining after "
                                             "stabilization");
  auto crash_flag = cli.flag<int>("crash", 7, "agents crashing in parts 2-3");
  auto seed_flag = cli.flag<long long>("seed", 3, "RNG seed");
  cli.parse(argc, argv);
  const auto n = static_cast<std::uint32_t>(*n_flag);
  const auto k = static_cast<ppk::pp::GroupId>(*k_flag);
  const auto joiners = static_cast<std::uint32_t>(*join_flag);
  const auto crashers = static_cast<std::uint32_t>(*crash_flag);
  const auto seed = static_cast<std::uint64_t>(*seed_flag);

  const ppk::core::KPartitionProtocol protocol(k);
  const ppk::pp::TransitionTable table(protocol);
  // Big enough to let faults fire after stabilization, small enough that a
  // genuinely stuck run ends promptly.
  constexpr std::uint64_t kBudget = 20'000'000ULL;
  // All schedules fire here -- comfortably after the ~n log n stabilization.
  constexpr std::uint64_t kFaultAt = 200'000ULL;

  std::printf("=== Part 1: %u agents join after stabilization ===\n", joiners);
  {
    std::vector<ppk::pp::FaultEvent> schedule;
    for (std::uint32_t i = 0; i < joiners; ++i) {
      ppk::pp::FaultEvent event;
      event.at = kFaultAt;
      event.kind = ppk::pp::FaultKind::kJoin;
      schedule.push_back(event);
    }
    ppk::pp::AgentSimulator sim(
        table,
        ppk::pp::Population(n, protocol.num_states(),
                            protocol.initial_state()),
        seed, std::move(schedule));
    sim.set_default_join_state(protocol.initial_state());
    const auto oracle = ppk::core::churn_aware_stable_oracle(protocol);
    const auto result = sim.run(*oracle, kBudget);
    std::printf("stabilized twice (before and after the joins): %s, "
                "%llu interactions total\n",
                result.stabilized ? "yes" : "NO",
                static_cast<unsigned long long>(result.interactions));
    print_sizes("  partition of n + join:",
                sim.population().group_sizes(protocol));
  }

  std::printf("\n=== Part 2: %u agents crash, bare protocol ===\n", crashers);
  {
    ppk::pp::AgentSimulator sim(
        table,
        ppk::pp::Population(n, protocol.num_states(),
                            protocol.initial_state()),
        seed + 1, crash_burst(kFaultAt, crashers));
    const auto oracle = ppk::core::churn_aware_stable_oracle(protocol);
    const auto result = sim.run(*oracle, kBudget);
    std::printf("recovery attempt: %s after %llu interactions\n",
                result.stabilized ? "recovered (lucky crash pattern)"
                                  : "NOT recovered (expected; budget-bound)",
                static_cast<unsigned long long>(result.interactions));
    print_sizes("  partition after crash:",
                sim.population().group_sizes(protocol));
    std::printf("  Lemma 1 invariant: %s\n",
                ppk::core::lemma1_holds(protocol, sim.population().counts())
                    ? "holds"
                    : "BROKEN (crash destroyed the bookkeeping)");
    std::printf(
        "\nWhy: committed agents (g states) never change groups, so the\n"
        "survivors cannot re-balance -- the protocol assumes designated\n"
        "initial states and is not self-stabilizing.\n");
  }

  std::printf("\n=== Part 3: the same crash, self-healing layer ===\n");
  {
    const ppk::core::SelfHealingKPartitionProtocol healing(k);
    const ppk::pp::TransitionTable healing_table(healing);
    ppk::pp::AgentSimulator sim(
        healing_table,
        ppk::pp::Population(n, healing.num_states(), healing.initial_state()),
        seed + 1,  // same pair stream as part 2
        crash_burst(kFaultAt, crashers));
    ppk::core::RecoveryManager manager(healing, sim);
    const auto result = sim.run(manager.oracle(), kBudget);
    std::printf("recovery: %s after %llu interactions "
                "(%u reset wave%s)\n",
                result.stabilized ? "recovered" : "NOT recovered",
                static_cast<unsigned long long>(result.interactions),
                manager.waves_started(),
                manager.waves_started() == 1 ? "" : "s");
    print_sizes("  partition of the survivors:",
                sim.population().group_sizes(healing));
    std::printf(
        "\nHow: the RecoveryManager noticed the lost group slots and seeded\n"
        "ONE survivor with the next epoch; the reset spread epidemically\n"
        "(each interaction converts one more agent into a fresh initial\n"
        "agent of the new epoch), after which plain Algorithm 1 re-ran on\n"
        "the surviving population.  Detection is the harness's job --\n"
        "anonymous agents cannot observe departures -- but the repair\n"
        "itself is pure population-protocol dynamics.\n");
  }
  return 0;
}
