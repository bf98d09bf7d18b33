// Tests of the cross-engine conformance harness (verify/conformance.hpp):
// the clean protocol passes every net, the committed corpus replays to its
// recorded verdicts, the mutation smoke check proves the harness detects a
// single flipped transition (and shrinks it to a deterministic repro), and
// the repro file format round-trips.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kpartition.hpp"
#include "verify/conformance.hpp"

namespace ppk::verify {
namespace {

namespace fs = std::filesystem;

ConformanceOptions fast_options() {
  ConformanceOptions options;
  options.ground_truth_max_n = 8;  // keep the exact nets cheap in the gate
  return options;
}

// ---------------------------------------------------------------------------
// Clean conformance

TEST(Conformance, KPartitionCaseIsConformantAcrossAllEngines) {
  ConformanceCase c;
  c.protocol.family = ConformanceProtocol::Family::kKPartition;
  c.protocol.k = 3;
  c.n = 12;
  c.seed = 20260806;
  c.trials = 24;
  c.budget = 200'000;
  const ConformanceReport report = check_conformance(c, fast_options());
  EXPECT_TRUE(report.ok()) << report.summary();
  // every-engine trajectory nets + pairwise resume nets + KS rows
  EXPECT_GE(report.checks_run, 20);
}

TEST(Conformance, SmallNCaseEnablesGroundTruthNets) {
  ConformanceCase c;
  c.protocol.k = 2;
  c.n = 6;  // <= ground_truth_max_n: reachable-set + model checker active
  c.seed = 7;
  c.trials = 16;
  c.budget = 50'000;
  const ConformanceReport report = check_conformance(c, fast_options());
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Conformance, CandidateProtocolCaseIsConformant) {
  // An arbitrary symmetric 3-state candidate (most candidates never
  // stabilize -- conformance is about engine agreement, not protocol
  // correctness, so the nets must hold regardless).
  ConformanceCase c;
  c.protocol.family = ConformanceProtocol::Family::kCandidate;
  c.protocol.candidate =
      CandidateSpec{3, num_symmetric_deltas(3) / 2, 0, 0b011};
  c.n = 9;
  c.seed = 11;
  c.trials = 16;
  c.budget = 20'000;
  const ConformanceReport report = check_conformance(c, fast_options());
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Conformance, WeakKPartitionCaseIsConformantAcrossAllEngines) {
  // The weak-fairness family rides every net the paper's protocol does:
  // silence is its stopping rule, and every stabilized configuration must
  // be a uniform partition (the ground-truth uniformity check).
  ConformanceCase c;
  c.protocol.family = ConformanceProtocol::Family::kWeakKPartition;
  c.protocol.k = 3;
  c.n = 12;
  c.seed = 20260808;
  c.trials = 24;
  c.budget = 200'000;
  const ConformanceReport report = check_conformance(c, fast_options());
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GE(report.checks_run, 20);
}

TEST(Conformance, WeakKPartitionSmallNEnablesGroundTruthNets) {
  // n = 6 <= ground_truth_max_n: the reachable set (10 states at k = 3)
  // and the global-fairness model checker both activate for the weak
  // family.
  ConformanceCase c;
  c.protocol.family = ConformanceProtocol::Family::kWeakKPartition;
  c.protocol.k = 2;
  c.n = 6;
  c.seed = 13;
  c.trials = 16;
  c.budget = 50'000;
  const ConformanceReport report = check_conformance(c, fast_options());
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Conformance, GraphBipartitionCaseIsConformantOnSparseRows) {
  // The arbitrary-graph family on the rows it was designed for: the
  // per-draw and live-edge engines over the ring, star, path and a seeded
  // G(n, 0.5), pinned pairwise by the sparse distribution net, plus the
  // complete-graph references.  Unlike the paper's protocol it must
  // *stabilize* (not wedge) on every connected topology.
  ConformanceCase c;
  c.protocol.family = ConformanceProtocol::Family::kGraphBipartition;
  c.n = 12;
  c.seed = 20260808;
  c.trials = 16;
  c.budget = 60'000;
  c.engines = {ConformanceEngine::kAgent,        ConformanceEngine::kGraphRing,
               ConformanceEngine::kGraphStar,    ConformanceEngine::kGraphPath,
               ConformanceEngine::kGraphEr,      ConformanceEngine::kLiveEdgeRing,
               ConformanceEngine::kLiveEdgeStar, ConformanceEngine::kLiveEdgePath,
               ConformanceEngine::kLiveEdgeEr,
               ConformanceEngine::kLiveEdgeComplete};
  const ConformanceReport report = check_conformance(c, fast_options());
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GE(report.checks_run, 24);
}

TEST(Conformance, GraphBipartitionSmallNEnablesGroundTruthNets) {
  ConformanceCase c;
  c.protocol.family = ConformanceProtocol::Family::kGraphBipartition;
  c.n = 7;  // odd n: the stable pattern carries exactly one parked signal
  c.seed = 17;
  c.trials = 16;
  c.budget = 50'000;
  const ConformanceReport report = check_conformance(c, fast_options());
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Conformance, SparseTopologyRowsAreConformantAndTerminate) {
  // n = 12, k = 4 wedges readily on the ring and path (builders walled in
  // by committed neighbours), so this case exercises the stall path of
  // every sparse row: the live-edge engine must prove the dead end and
  // stop, the chunked driver must not spin on a stalled engine (the drive
  // loop used to re-grant forever), and the live-edge rows must match
  // their per-draw counterparts in law on the censored axes.
  ConformanceCase c;
  c.protocol.family = ConformanceProtocol::Family::kKPartition;
  c.protocol.k = 4;
  c.n = 12;
  c.seed = 20260806;
  c.trials = 16;
  c.budget = 60'000;
  c.engines = {ConformanceEngine::kAgent,        ConformanceEngine::kGraphRing,
               ConformanceEngine::kGraphStar,    ConformanceEngine::kGraphPath,
               ConformanceEngine::kGraphEr,      ConformanceEngine::kLiveEdgeRing,
               ConformanceEngine::kLiveEdgeStar, ConformanceEngine::kLiveEdgePath,
               ConformanceEngine::kLiveEdgeEr,
               ConformanceEngine::kLiveEdgeComplete};
  const ConformanceReport report = check_conformance(c, fast_options());
  EXPECT_TRUE(report.ok()) << report.summary();
  // 10 trajectory nets + 10 chunked nets (all rows are pairwise) + 2
  // vs-agent KS rows (live-edge-complete only sparse-excluded ones drop
  // out) + 4 sparse-pair KS rows.
  EXPECT_GE(report.checks_run, 24);
}

TEST(Conformance, DeterministicVerdict) {
  ConformanceCase c;
  c.protocol.k = 4;
  c.n = 10;
  c.seed = 42;
  c.trials = 12;
  c.budget = 100'000;
  c.engines = {ConformanceEngine::kAgent, ConformanceEngine::kJump,
               ConformanceEngine::kGraphComplete};
  const ConformanceReport a = check_conformance(c, fast_options());
  const ConformanceReport b = check_conformance(c, fast_options());
  EXPECT_EQ(a.ok(), b.ok());
  EXPECT_EQ(a.checks_run, b.checks_run);
  EXPECT_EQ(a.summary(), b.summary());
}

// ---------------------------------------------------------------------------
// Mutation smoke: the harness must see a single flipped transition

TEST(ConformanceMutation, FlippedTransitionIsDetectedAndShrinks) {
  const core::KPartitionProtocol protocol(3);
  ConformanceCase c;
  c.protocol.k = 3;
  // Engines run (initial, initial) -> (g1, g1) instead of the true rule;
  // every reference model keeps the paper's semantics.  The first mutated
  // application creates two g1 members with no balancing m/d/gk mass, so
  // Lemma 1 breaks immediately.
  c.mutation = TableMutation{core::KPartitionProtocol::kInitial,
                             core::KPartitionProtocol::kInitial,
                             pp::Transition{protocol.g(1), protocol.g(1)}};
  c.n = 12;
  c.seed = 3;
  c.trials = 12;
  c.budget = 50'000;
  c.engines = {ConformanceEngine::kAgent};

  const ConformanceOptions options = fast_options();
  const ConformanceReport report = check_conformance(c, options);
  ASSERT_FALSE(report.ok()) << "harness failed to flag the mutated table";
  const Divergence& d = report.divergences.front();
  EXPECT_EQ(d.check, ConformanceCheck::kLemma1) << report.summary();

  const ConformanceRepro repro = shrink_failure(c, d, options);
  // Two free agents suffice to fire the mutated rule: minimal n = 3 (the
  // protocol's floor), and the schedule shrinks to a single interaction.
  EXPECT_EQ(repro.shrunk.n, 3u);
  EXPECT_EQ(repro.shrunk.protocol.k, 2u);  // mutation survives at k = 2
  ASSERT_FALSE(repro.schedule.empty());
  EXPECT_EQ(repro.schedule.size(), 1u);

  // The shrunken repro replays deterministically to the same verdict.
  const ConformanceReport replayed = replay_repro(repro, options);
  EXPECT_FALSE(replayed.ok());
  ASSERT_FALSE(replayed.divergences.empty());
  EXPECT_EQ(replayed.divergences.front().check, ConformanceCheck::kLemma1);
}

TEST(ConformanceMutation, FlippedTransitionIsDetectedThroughLiveEdgeEngine) {
  // Same mutation smoke as above, but the only driven engine is the
  // live-edge row on a sparse graph: its CheckingOracle must catch the
  // Lemma 1 break exactly like the agent reference does -- the skip-ahead
  // sampling must not skip past oracle-visible transitions.
  const core::KPartitionProtocol protocol(3);
  ConformanceCase c;
  c.protocol.k = 3;
  c.mutation = TableMutation{core::KPartitionProtocol::kInitial,
                             core::KPartitionProtocol::kInitial,
                             pp::Transition{protocol.g(1), protocol.g(1)}};
  c.n = 12;
  c.seed = 3;
  c.trials = 12;
  c.budget = 50'000;
  c.engines = {ConformanceEngine::kLiveEdgeRing};

  const ConformanceReport report = check_conformance(c, fast_options());
  ASSERT_FALSE(report.ok())
      << "live-edge engine failed to flag the mutated table";
  const Divergence& d = report.divergences.front();
  EXPECT_EQ(d.check, ConformanceCheck::kLemma1) << report.summary();
  EXPECT_EQ(d.engine, ConformanceEngine::kLiveEdgeRing);
}

TEST(ConformanceMutation, TimingOnlyMutationOnlyFailsTheExactNet) {
  // Nullifying rule 1 ((initial, initial) -> (initial', initial') becomes
  // a no-op) leaves the all-initial start silent: initial' is never
  // produced, so no other rule can ever fire.  Every relative net passes
  // -- the trajectory is trivially deterministic, Lemma 1 holds in the
  // all-initial configuration, and all engines agree with each other on
  // the never-stabilizes law.  Only the exact-distribution net, whose
  // reference is the true protocol's first-passage CDF rather than
  // another engine, can see that the censored sample (a point mass at the
  // budget) is impossibly slow.
  ConformanceCase c;
  c.protocol.k = 2;
  c.mutation = TableMutation{core::KPartitionProtocol::kInitial,
                             core::KPartitionProtocol::kInitial,
                             pp::Transition{core::KPartitionProtocol::kInitial,
                                            core::KPartitionProtocol::kInitial}};
  c.n = 8;
  c.seed = 1;
  c.trials = 16;
  c.budget = 20'000;
  c.engines = {ConformanceEngine::kAgent};

  const ConformanceReport report = check_conformance(c, fast_options());
  ASSERT_FALSE(report.ok())
      << "the absolute exact-distribution reference missed a timing-only "
      << "mutation invisible to every engine-to-engine net";
  for (const Divergence& d : report.divergences) {
    EXPECT_EQ(d.check, ConformanceCheck::kExactDistribution)
        << report.summary();
    EXPECT_EQ(d.engine, ConformanceEngine::kAgent);
  }
}

TEST(Conformance, ExactNetPassesBeyondTheDenseSolverCeiling) {
  // The acceptance case for the lumped analysis: n = 110 puts the
  // k = 2 chain (~3100 reachable configurations, g1 == g2 throughout)
  // beyond the dense solver's 3000-unknown ceiling, yet the
  // exact-distribution net still gets its reference CDF from the lumped
  // chain (~1/4 the orbits) and every complete-topology engine must match
  // it.  Budget exceeds the horizon so censoring is the horizon's.
  ConformanceCase c;
  c.protocol.k = 2;
  c.n = 110;
  c.seed = 20260808;
  c.trials = 10;
  c.budget = 60'000;
  c.engines = {
      ConformanceEngine::kAgent,        ConformanceEngine::kJump,
      ConformanceEngine::kBatchAuto,    ConformanceEngine::kBatchForced,
      ConformanceEngine::kThinForced,   ConformanceEngine::kBatchSharded,
      ConformanceEngine::kGraphComplete, ConformanceEngine::kAdversarialEps1,
      ConformanceEngine::kChurnNoFaults,
      ConformanceEngine::kLiveEdgeComplete};
  ConformanceOptions options = fast_options();
  options.exact_max_n = 128;
  const ConformanceReport report = check_conformance(c, options);
  EXPECT_TRUE(report.ok()) << report.summary();
  // The exact net alone contributes one check per engine.
  EXPECT_GE(report.checks_run, 30);
}

TEST(ConformanceMutation, ReproSerializationRoundTrips) {
  const core::KPartitionProtocol protocol(3);
  ConformanceCase c;
  c.protocol.k = 3;
  c.mutation = TableMutation{core::KPartitionProtocol::kInitial,
                             core::KPartitionProtocol::kInitial,
                             pp::Transition{protocol.g(1), protocol.g(1)}};
  c.n = 8;
  c.seed = 5;
  c.trials = 8;
  c.budget = 20'000;
  c.engines = {ConformanceEngine::kAgent};

  const ConformanceOptions options = fast_options();
  const ConformanceReport report = check_conformance(c, options);
  ASSERT_FALSE(report.ok());
  ConformanceRepro repro =
      shrink_failure(c, report.divergences.front(), options);
  repro.expect_pass = false;

  const std::string text = serialize_repro(repro);
  std::string error;
  const auto parsed = parse_repro(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->shrunk.n, repro.shrunk.n);
  EXPECT_EQ(parsed->shrunk.seed, repro.shrunk.seed);
  EXPECT_EQ(parsed->check, repro.check);
  EXPECT_EQ(parsed->engine, repro.engine);
  EXPECT_EQ(parsed->schedule, repro.schedule);
  EXPECT_EQ(parsed->expect_pass, repro.expect_pass);
  ASSERT_TRUE(parsed->shrunk.mutation.has_value());
  EXPECT_EQ(parsed->shrunk.mutation->p, repro.shrunk.mutation->p);
  EXPECT_EQ(parsed->shrunk.mutation->out, repro.shrunk.mutation->out);

  const ConformanceReport replayed = replay_repro(*parsed, options);
  EXPECT_FALSE(replayed.ok()) << "parsed repro lost the divergence";
}

TEST(ConformanceRepro, ParserRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_repro("", &error).has_value());
  EXPECT_FALSE(parse_repro("not-a-repro\n", &error).has_value());
  EXPECT_FALSE(
      parse_repro("ppk-conformance-repro-v1\nengine agent\ncheck lemma1\n",
                  &error)
          .has_value());
  EXPECT_EQ(error, "missing protocol line");
  // "count" named the deleted count-vector engine: an unknown engine now,
  // never an alias for another one.
  for (const char* engine : {"warp-drive", "count"}) {
    EXPECT_FALSE(parse_repro(std::string("ppk-conformance-repro-v1\n"
                                         "protocol kpartition 3\n"
                                         "engine ") +
                                 engine + "\ncheck lemma1\n",
                             &error)
                     .has_value());
    EXPECT_EQ(error, std::string("unknown engine '") + engine + "'");
  }
}

TEST(ConformanceRepro, NewFamilyHeadersRoundTrip) {
  ConformanceRepro weak;
  weak.shrunk.protocol.family = ConformanceProtocol::Family::kWeakKPartition;
  weak.shrunk.protocol.k = 4;
  weak.engine = ConformanceEngine::kJump;
  weak.check = ConformanceCheck::kTrajectory;
  weak.expect_pass = true;
  const auto weak_parsed = parse_repro(serialize_repro(weak), nullptr);
  ASSERT_TRUE(weak_parsed.has_value());
  EXPECT_EQ(weak_parsed->shrunk.protocol.family,
            ConformanceProtocol::Family::kWeakKPartition);
  EXPECT_EQ(weak_parsed->shrunk.protocol.k, 4u);

  ConformanceRepro graph;
  graph.shrunk.protocol.family =
      ConformanceProtocol::Family::kGraphBipartition;
  graph.engine = ConformanceEngine::kLiveEdgeStar;
  graph.check = ConformanceCheck::kSnapshotResume;
  const auto graph_parsed = parse_repro(serialize_repro(graph), nullptr);
  ASSERT_TRUE(graph_parsed.has_value());
  EXPECT_EQ(graph_parsed->shrunk.protocol.family,
            ConformanceProtocol::Family::kGraphBipartition);
}

TEST(ConformanceNames, RoundTrip) {
  for (const ConformanceEngine engine : all_conformance_engines()) {
    const auto back = conformance_engine_from_name(
        conformance_engine_name(engine));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, engine);
  }
  for (const ConformanceCheck check :
       {ConformanceCheck::kTrajectory, ConformanceCheck::kChunkedResume,
        ConformanceCheck::kDistribution, ConformanceCheck::kLemma1,
        ConformanceCheck::kGroundTruth,
        ConformanceCheck::kExactDistribution}) {
    const auto back =
        conformance_check_from_name(conformance_check_name(check));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, check);
  }
}

// ---------------------------------------------------------------------------
// Deterministic fuzz session (the PR-gate slice of the nightly job)

TEST(ConformanceFuzz, ShortDeterministicSessionIsClean) {
  FuzzOptions options;
  options.seed = 0xF00D;
  options.num_cases = 4;
  options.max_n = 14;
  options.max_k = 4;
  options.trials = 10;
  options.kpartition_budget = 120'000;
  options.candidate_budget = 10'000;
  options.check = fast_options();
  const FuzzResult result = fuzz_conformance(options);
  EXPECT_EQ(result.cases_run, 4);
  ASSERT_FALSE(result.failure.has_value())
      << serialize_repro(*result.failure);
}

// ---------------------------------------------------------------------------
// Committed corpus replay

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  const fs::path dir(PPK_CONFORMANCE_CORPUS_DIR);
  if (fs::exists(dir)) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".repro") {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ConformanceCorpus, EveryCommittedReproReplaysToItsRecordedVerdict) {
  const std::vector<fs::path> files = corpus_files();
  ASSERT_FALSE(files.empty())
      << "no .repro files under " << PPK_CONFORMANCE_CORPUS_DIR;
  for (const fs::path& file : files) {
    std::ifstream in(file);
    ASSERT_TRUE(in.good()) << file;
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    const auto repro = parse_repro(text.str(), &error);
    ASSERT_TRUE(repro.has_value()) << file << ": " << error;
    const ConformanceReport report = replay_repro(*repro, fast_options());
    if (repro->expect_pass) {
      EXPECT_TRUE(report.ok())
          << file << " regressed:\n"
          << report.summary();
    } else {
      EXPECT_FALSE(report.ok())
          << file << ": the harness no longer detects this divergence "
          << "(detector sensitivity regressed)";
    }
  }
}

}  // namespace
}  // namespace ppk::verify
