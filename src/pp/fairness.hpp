// The fairness-policy axis: which scheduling guarantee a run exercises.
//
// A population protocol is only correct *relative to a fairness
// assumption*; the three papers this repo reproduces each assume a
// different one (see docs/fairness.md for the full matrix):
//
//  - kUniformRandom: every ordered pair equally likely each step.  The
//    standard probabilistic scheduler; globally fair with probability 1.
//  - kEpsilonFair: with probability 1 - epsilon the scheduler probes for
//    an interaction that makes no group-output progress.  Still globally
//    fair with probability 1 (every pair keeps epsilon/(n(n-1))
//    probability), but stalls progress -- a stress test for
//    global-fairness protocols, not a different correctness regime.
//  - kWeakRoundRobin: each round schedules every ordered pair exactly
//    once, in an adversarially chosen order (the scheduler probes for
//    non-progressing pairs first).  Any infinite execution interacts
//    every pair infinitely often and nothing more -- weakly fair by
//    construction, and NOT globally fair: protocols that need global
//    fairness (the paper's k-partition, the 4-state bipartition) livelock
//    or stabilize to wrong outputs under it, while
//    core::WeakKPartitionProtocol stabilizes.  Exhaustive ground truth
//    for which protocol survives which policy lives in
//    verify/weak_fairness.hpp.
//
// FairnessSpec rides in MonteCarloOptions: any protocol x policy x
// topology x engine combination is one scenario.  Policies other than
// kUniformRandom route the trial to the AgentSimulator's fairness draw
// rule (the agent array is the only engine that schedules *agents* rather
// than state counts).

#pragma once

#include <cstdint>
#include <string>

#include "util/assert.hpp"

namespace ppk::pp {

/// The scheduling guarantee a run exercises (see the header comment).
enum class FairnessPolicy : std::uint8_t {
  kUniformRandom = 0,
  kEpsilonFair = 1,
  kWeakRoundRobin = 2,
};

/// A fairness policy plus its parameters; rides in MonteCarloOptions.
struct FairnessSpec {
  FairnessPolicy policy = FairnessPolicy::kUniformRandom;
  /// Probability of a uniform-random draw under kEpsilonFair (ignored by the
  /// other policies).  1.0 degenerates to kUniformRandom.
  double epsilon = 1.0;

  /// The standard scheduler: every ordered pair equally likely each step.
  [[nodiscard]] static FairnessSpec uniform_random() { return {}; }
  /// Adversarial stalling with a uniform draw at rate `epsilon` in (0, 1].
  [[nodiscard]] static FairnessSpec epsilon_fair(double epsilon) {
    PPK_EXPECTS(epsilon > 0.0 && epsilon <= 1.0);
    return {FairnessPolicy::kEpsilonFair, epsilon};
  }
  /// Weakly fair adversary: every ordered pair once per round.
  [[nodiscard]] static FairnessSpec weak_round_robin() {
    return {FairnessPolicy::kWeakRoundRobin, 1.0};
  }

  /// True iff the spec needs the agent-scheduling adversarial engine.
  [[nodiscard]] bool needs_adversarial_engine() const noexcept {
    return policy == FairnessPolicy::kWeakRoundRobin ||
           (policy == FairnessPolicy::kEpsilonFair && epsilon < 1.0);
  }
};

/// Stable display/serialization name of a policy.
[[nodiscard]] inline std::string to_string(FairnessPolicy policy) {
  switch (policy) {
    case FairnessPolicy::kUniformRandom:
      return "uniform-random";
    case FairnessPolicy::kEpsilonFair:
      return "epsilon-fair";
    case FairnessPolicy::kWeakRoundRobin:
      return "weak-round-robin";
  }
  PPK_ASSERT(false);
  return {};
}

}  // namespace ppk::pp
