// --self-test: the benchmark's own checks of its rules and its failure
// accounting, run without the library's simulations (a few milliseconds).

#include <cstdio>
#include <deque>

#include "core/invariants.hpp"
#include "inputs.hpp"
#include "ppkd_client.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;
int g_checks = 0;

void expect(bool ok, const char* what) {
  ++g_checks;
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "self-test: FAILED: %s\n", what);
}

Reply replay(std::deque<std::string> frames) {
  return collect_reply(now_s(), [&frames] {
    std::string line = frames.front();
    frames.pop_front();
    return line;
  });
}

}  // namespace

int run_self_test() {
  // Percentile rule: at least ten samples beyond the reported percentile.
  expect(percentile_reportable(100, 0.90), "p90 of 100 samples");
  expect(!percentile_reportable(99, 0.90), "p90 of 99 samples");
  expect(percentile_reportable(1000, 0.99), "p99 of 1000 samples");
  expect(!percentile_reportable(999, 0.99), "p99 of 999 samples");
  expect(quantile({5, 1, 4, 2, 3}, 0.5) == 3, "median of five");

  // Metric names.
  expect(valid_metric_name("pp.sharded.step_p50_us"), "dotted name");
  expect(valid_metric_name("setup_s"), "plain name");
  expect(!valid_metric_name("bad name"), "space rejected");
  expect(!valid_metric_name(".leading"), "leading dot rejected");
  expect(!valid_metric_name("x/y"), "slash rejected");

  // exact_ceiling: the pinned references pass, a wrong one fails.
  {
    const ExactCeiling exact(1);
    ExactCeiling::Answer answer;
    for (const ExactInstance& i : exact.instances()) {
      ExactCeiling::InstanceAnswer a;
      a.ok = true;
      a.solver = "lumped";
      a.expected = i.expected_interactions;
      a.absorption.assign(i.bottom_sccs, 1.0 / static_cast<double>(
                                                   i.bottom_sccs));
      answer.instances.push_back(a);
    }
    Outcome good;
    exact.check(answer, good);
    expect(good.failed == 0 && good.attempted == 4, "pinned answers pass");
    answer.instances[0].expected *= 1.0 + 1e-8;
    Outcome bad;
    exact.check(answer, bad);
    expect(bad.failed == 1, "a wrong reference is a failed operation");
    answer.instances[0].ok = false;
    answer.instances[0].error = "uncertified solve";
    Outcome uncertified;
    exact.check(answer, uncertified);
    expect(uncertified.failed == 1, "an uncertified solve fails");
  }

  // large_n: budget and Lemma 1.
  {
    const LargeN large(1, 1);
    LargeN::Answer answer;
    for (const LargeTrial& t : large.trials()) {
      ppk::pp::TrialResult r;
      r.interactions = t.budget;
      answer.trials.push_back(r);
      ppk::pp::Counts c(large.protocol().num_states(), 0);
      c[0] = t.n;
      answer.finals.push_back(c);
    }
    Outcome good;
    large.check(answer, good);
    expect(good.failed == 0, "initial configuration satisfies Lemma 1");
    answer.trials[1].interactions -= 1;
    answer.finals[0][large.protocol().g(1)] += 1;
    answer.finals[0][0] -= 1;
    Outcome bad;
    large.check(answer, bad);
    expect(bad.failed == 2, "short budget and broken Lemma 1 both fail");
  }

  // paper_sweep: a final configuration off the stable pattern fails.
  {
    const PaperSweep sweep(1);
    PaperSweep::Answer answer;
    FinalCounts finals;
    for (const SweepPoint& p : sweep.grid()) {
      ppk::pp::TrialResult r;
      r.stabilized = true;
      answer.points.push_back({r});
      finals.counts.push_back(
          ppk::core::stable_counts(sweep.protocol(p.k), p.n));
    }
    Outcome good;
    sweep.check(answer, finals, good);
    expect(good.failed == 0, "stable patterns pass");
    finals.counts[0] = ppk::pp::Counts(finals.counts[0].size(), 0);
    finals.counts[0][0] = sweep.grid()[0].n;
    answer.points[1][0].stabilized = false;
    Outcome bad;
    sweep.check(answer, finals, bad);
    expect(bad.failed == 2, "unstable trial and wrong counts both fail");
  }

  // ppkd: frames.
  {
    const std::vector<Request> script = mix_script(1, kWarmSet + 1);
    std::vector<std::string> lines;
    const std::string result =
        R"({"event": "result", "scenario": "ab", "seed": 1, "trials": []})";
    const Reply cold = replay({R"({"event": "accepted", "cached": false})",
                               R"({"event": "job", "resumed": false})",
                               result});
    expect(cold.ok && !cold.cached && cold.frames == 3, "a cold reply parses");
    expect(ppkd_reply_check(script[0], cold, lines).empty(),
           "a cold reply passes");
    lines.assign(kWarmSet, result);
    const Request& hit = script[kWarmSet];
    const Reply cached =
        replay({R"({"event": "accepted", "cached": true})", result});
    expect(ppkd_reply_check(hit, cached, lines).empty(), "a hit passes");
    const Reply corrupted = replay(
        {R"({"event": "accepted", "cached": true})", result.substr(0, 30)});
    expect(!ppkd_reply_check(hit, corrupted, lines).empty(),
           "a corrupted frame is a failed operation");
    const Reply differs = replay({R"({"event": "accepted", "cached": true})",
                                  result + " "});
    expect(!ppkd_reply_check(hit, differs, lines).empty(),
           "a cached line that is not byte-identical fails");
    const Reply error = replay({R"({"event": "error", "error": "x"})"});
    expect(!ppkd_reply_check(script[0], error, lines).empty(),
           "an error frame fails");
    const Reply incomplete =
        replay({R"({"event": "accepted", "cached": false})",
                R"({"event": "incomplete", "completed": 0})"});
    expect(!ppkd_reply_check(script[0], incomplete, lines).empty(),
           "an incomplete frame fails");
  }

  std::printf("self-test: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
