// The collision-free batch simulation engine: o(1) amortized work per
// interaction, distribution-identical to AgentSimulator.
//
// Every other engine pays at least O(1) per *drawn* interaction (agent,
// count) or O(|Q|) per *effective* interaction (jump).  This engine applies
// whole groups of interactions at once and touches the RNG O(|Q|) times per
// group, so its per-interaction cost vanishes as n grows.
//
// Exactness is the crux.  A naive batch -- draw B ordered state pairs from
// the multinomial over the |Q|^2 pair weights c_p (c_q - [p==q]) and apply
// them in aggregate -- is exact only while no drawn agent has already been
// changed within the batch: the first effective pair makes some agents'
// states "dirty", and subsequent draws must see the updated configuration.
// Instead of bounding B heuristically, the engine batches exactly up to the
// first repeated agent (the birthday boundary):
//
//  1. Run length.  Let L be the number of leading interactions in which all
//     drawn agents are distinct (2L distinct agents).  Under the uniform
//     scheduler P(L >= l) = n! / ((n-2l)! * (n(n-1))^l), a birthday-type
//     survival function with E[L] = Theta(sqrt(n)).  L is sampled by
//     inverting that CDF in log space (two lgamma calls per probe, binary
//     search over l).
//  2. Composition.  Conditioned on L, the 2L agents are a uniform
//     without-replacement sample: the initiators' state multiset U is
//     multivariate hypergeometric over the counts, the responders' V over
//     the remainder, and the ordered state-pair contingency table N[p][q]
//     follows from pairing U against V by a uniform matching -- each row a
//     sequential (multivariate) hypergeometric split of V.  Every draw uses
//     the exact samplers in util/rng.hpp.
//  3. Aggregate apply.  All L interactions touch pairwise-distinct agents,
//     so their transitions commute: each cell (p, q) with N[p][q] = m moves
//     m agents per rule output in O(1); null cells are free.
//  4. The collision interaction.  If the budget allows, the (L+1)-th
//     interaction -- the one that first touches an already-touched agent --
//     is drawn exactly: a uniform ordered pair conditioned on not being
//     fresh-fresh, with integer weights c_a (c_b - [a==b]) minus the
//     fresh-fresh weights (fresh counts = post-batch counts minus the
//     per-state touched counts accumulated in step 3).
//
// After the collision interaction the batch merges into the plain count
// vector and the next batch starts from scratch; the scheduler is i.i.d.,
// so no information leaks across the boundary.  When an interaction budget
// truncates a batch the engine conditions only on "the first b draws are
// collision-free" (it never uses the sampled run length beyond the
// truncation point), which keeps budgets exact.
//
// Sparse regime.  Near silence the batch above still advances only
// Theta(sqrt(n)) interactions per O(|Q|^2) of work while almost all of them
// are null.  There the engine switches to a thin regime -- the jump
// engine's trick: skip the geometric(p_eff) null run in O(1), draw one
// effective pair with exact integer weights.  kAuto picks per advance:
// batch while p_eff * sqrt(n) >= 8, thin below (the crossover where a
// single geometric skip outruns a whole batch; see use_batch_regime()).
// Tests pin either regime via set_batch_mode().
//
// Oracles see batches through StabilityOracle::on_batch (endpoints only;
// see stability.hpp for why that is exact for configuration-function
// oracles) and thin-regime draws through the usual on_transition.

#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "pp/engine_loop.hpp"
#include "pp/population.hpp"
#include "pp/sim_result.hpp"
#include "pp/snapshot.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"
#include "util/rng.hpp"

namespace ppk::obs {
class ObsSink;
}  // namespace ppk::obs

namespace ppk::pp {

/// Regime selection for BatchSimulator.  kAuto is the production setting;
/// the forced modes exist so tests can exercise one code path in isolation.
enum class BatchMode {
  kAuto,        ///< per-advance choice between batch and thin (default)
  kForceBatch,  ///< always the collision-free batch path
  kForceThin,   ///< always the geometric-skip pairwise path
};

/// The regime rule both batch engines apply once per advance: true for a
/// collision-free batch, false for one thin-regime draw.  kAuto batches
/// while p_eff * sqrt(n) >= 8, with p_eff = weight / (n (n - 1)): below
/// that, one thin advance (expected 1/p_eff interactions for one cell
/// scan) outruns a whole batch (~sqrt(n)/2 interactions for dozens of
/// hypergeometric draws), and 8 is their measured cost ratio per advance.
[[nodiscard]] bool use_batch_regime(BatchMode mode, std::uint64_t weight,
                                    std::uint64_t n);

class BatchSimulator : public EngineLoop<BatchSimulator> {
 public:
  BatchSimulator(const TransitionTable& table, Counts initial,
                 std::uint64_t seed);

  /// One unbounded advance().  Returns false iff the configuration is
  /// silent (nothing can advance).
  bool step(StabilityOracle& oracle);

  /// One bounded advance for the shared run()/resume() loop
  /// (pp/engine_loop.hpp): a collision-free batch (plus its collision
  /// interaction) or one thin-regime effective draw, per the mode.  The
  /// budget is exact: batches truncate at the boundary (conditioning only
  /// on collision-freeness of the draws actually used) and thin-regime
  /// null skips clamp like the jump engine.  Because the oracle observes
  /// batch *endpoints*, a stabilization that occurs mid-batch is reported
  /// at the batch's end -- at most Theta(sqrt(n)) interactions late
  /// against the Theta(n^2) totals being measured.  Advances 0 iff the
  /// configuration is silent.
  Advance advance(StabilityOracle& oracle, std::uint64_t budget);

  void set_batch_mode(BatchMode mode) noexcept { mode_ = mode; }

  /// Attaches an observability sink (obs/sink.hpp); nullptr detaches.  The
  /// sink sees each batch at its endpoint (timeline samples inside a batch
  /// carry the endpoint configuration -- the on_batch attribution contract)
  /// and each thin-regime null run / effective pair exactly; it must
  /// outlive the simulator.
  void set_obs_sink(obs::ObsSink* sink) noexcept { obs_ = sink; }

  /// Serializable mid-run state: counts, RNG position, interaction counters
  /// and the batch mode (contract in pp/snapshot.hpp).  Batches never carry
  /// state across advances (each one merges into the count vector at its
  /// collision boundary), so nothing else needs saving; the lgamma table
  /// and scratch buffers are rebuilt/retained by the receiving engine.
  [[nodiscard]] Snapshot snapshot() const;

  /// Restores a snapshot() taken from an engine constructed with the same
  /// arguments; resuming afterwards is bit-identical to the snapshotted
  /// engine under the same resume() grants.
  void restore(const Snapshot& snap);

  [[nodiscard]] BatchMode batch_mode() const noexcept { return mode_; }

  [[nodiscard]] const Counts& counts() const noexcept { return counts_; }

  [[nodiscard]] std::uint64_t population_size() const noexcept { return n_; }

  /// Exact total weight of effective ordered pairs (out of n(n-1)) in the
  /// current configuration; 0 iff silent.
  [[nodiscard]] std::uint64_t effective_weight() const;

 private:
  std::uint64_t batch_advance(StabilityOracle& oracle, std::uint64_t budget);
  Advance thin_advance(StabilityOracle& oracle, std::uint64_t budget,
                       std::uint64_t weight);

  /// Samples the birthday run length L (largest l such that the first l
  /// interactions touch 2l distinct agents), capped at floor(n/2).
  std::uint64_t sample_run_length();

  void apply_pair(StateId p, StateId q);

  /// log(x!) for the integral-valued double x.  Every hypergeometric draw
  /// needs several of these; for populations up to kLogFactTableMax the
  /// constructor borrows the process-wide shared lgamma table
  /// (util/log_fact.hpp; values bit-identical to calling lgamma live, and
  /// the fill cost is paid once per process instead of once per engine).
  /// Larger populations fall back to live lgamma, exactly as before the
  /// table was hoisted -- the sharded engine owns the fast large-n path.
  [[nodiscard]] double log_fact(double x) const {
    return log_fact_ == nullptr
               ? std::lgamma(x + 1.0)
               : (*log_fact_)[static_cast<std::size_t>(x)];
  }

  static constexpr std::uint64_t kLogFactTableMax = 1ULL << 20;

  const TransitionTable* table_;
  Counts counts_;
  Xoshiro256 rng_;
  std::uint64_t n_ = 0;
  BatchMode mode_ = BatchMode::kAuto;
  obs::ObsSink* obs_ = nullptr;
  /// Shared table of log(i!) for i <= n when n is tabulable, else null.
  std::shared_ptr<const std::vector<double>> log_fact_;

  /// Effective cells (p, q) in deterministic (row-major) order; the thin
  /// regime's weight scans and the silence check iterate these.
  std::vector<std::pair<StateId, StateId>> effective_cells_;

  // Scratch buffers reused across batches (never shrink; |Q| is tiny).
  std::vector<std::uint32_t> initiators_;    // U: initiator state multiset
  std::vector<std::uint32_t> responders_;    // V: responder state multiset
  std::vector<std::uint32_t> remaining_;     // urn scratch for row splits
  std::vector<std::uint32_t> touched_;       // post-batch touched counts
  std::vector<std::int64_t> count_delta_;    // batch count deltas
};

extern template class EngineLoop<BatchSimulator>;

}  // namespace ppk::pp
