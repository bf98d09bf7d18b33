// Machine-checkable statements of the paper's correctness lemmas.
//
//  - Lemma 1 (the counting invariant):  for every reachable configuration
//    and every x in 1..k,
//        #g_x = sum_{p=x+1..k-1} #m_p + sum_{q=x..k-2} #d_q + #g_k.
//    lemma1_holds() evaluates the formula on a count vector; the tests check
//    it along random executions and (exhaustively) over every reachable
//    configuration for small (n, k).
//
//  - Lemmas 4-6 (the unique stable pattern):  with r = n mod k, the stable
//    configurations are exactly those with
//        #g_x = floor(n/k)+1  for x <= r-1,
//        #g_x = floor(n/k)    for x >= r,
//        plus one free agent (initial or initial') if r = 1,
//        or one agent in m_r if r >= 2,
//    and nothing else.  stable_pattern_oracle() packages this as the O(1)
//    stopping criterion used by all simulations of the protocol.

#pragma once

#include <cstdint>
#include <memory>

#include "core/kpartition.hpp"
#include "pp/population.hpp"
#include "pp/stability.hpp"

namespace ppk::core {

/// Evaluates the Lemma 1 formula on a configuration.
bool lemma1_holds(const KPartitionProtocol& protocol,
                  const pp::Counts& counts);

/// The stable count pattern of Lemmas 4-6 for a population of n agents.
/// Classes: one merged class for {initial, initial'}, one per other state.
pp::Counts stable_counts(const KPartitionProtocol& protocol, std::uint32_t n);

/// True iff `counts` matches the stable pattern (treating initial and
/// initial' as interchangeable).
bool matches_stable_pattern(const KPartitionProtocol& protocol,
                            std::uint32_t n, const pp::Counts& counts);

/// O(1)-per-interaction stability oracle for the protocol (see
/// pp::CountPatternOracle).
std::unique_ptr<pp::StabilityOracle> stable_pattern_oracle(
    const KPartitionProtocol& protocol, std::uint32_t n);

/// Like stable_pattern_oracle, but rebuilds its target whenever the
/// population changes mid-run (AgentSimulator's churn rule announces churn
/// through on_external_change), so a no-recovery run can honestly ask
/// whether the survivors ever reach the uniform pattern of the *surviving*
/// population.
/// Never stable while fewer than 3 agents remain.
std::unique_ptr<pp::StabilityOracle> churn_aware_stable_oracle(
    const KPartitionProtocol& protocol);

}  // namespace ppk::core
