// Exhaustive verification demo: decide the paper's Theorem 1 for a chosen
// (n, k) by exploring *every* reachable configuration and checking every
// bottom SCC -- and show that the "basic strategy" (transitions 1-7 only,
// Section 3.2) genuinely fails, which is why the D states exist.
//
//   ./verify_exhaustive [--n 8] [--k 4]
//
// Exits 1 when the full protocol does not solve the problem at (n, k), so
// a CI step can run Theorem 1 at a chosen n; the basic strategy's expected
// failure does not affect the exit status.
//
// Each verdict is printed with its wall time and the process's peak
// resident set so far (getrusage), so the example doubles as the record of
// the verifier's cost (docs/theory.md, "Scale").

#include <sys/resource.h>

#include <cstdio>

#include "core/kpartition.hpp"
#include "pp/transition_table.hpp"
#include "util/stopwatch.hpp"
#include "util/cli.hpp"
#include "verify/global_fairness.hpp"

namespace {

void report(const char* label, const ppk::verify::Verdict& verdict,
            double seconds) {
  std::printf("%s\n", label);
  std::printf("  reachable configurations: %zu\n", verdict.reachable_configs);
  std::printf("  SCCs: %zu (bottom: %zu)\n", verdict.num_sccs,
              verdict.bottom_sccs);
  std::printf("  verdict: %s (%.3fs)\n",
              verdict.solves ? "SOLVES uniform k-partition under global "
                               "fairness"
                             : "DOES NOT SOLVE the problem",
              seconds);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("  peak RSS so far: %.1f MiB\n",
              static_cast<double>(usage.ru_maxrss) / 1024.0);
  if (!verdict.solves) {
    std::printf("  witness: %s\n", verdict.failure.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  ppk::Cli cli("verify_exhaustive",
               "Model-check Theorem 1 on a small population.");
  auto n_flag = cli.flag<int>("n", 8, "population size");
  auto k_flag = cli.flag<int>("k", 4, "number of groups");
  cli.parse(argc, argv);
  const auto n = static_cast<std::uint32_t>(*n_flag);
  const auto k = static_cast<ppk::pp::GroupId>(*k_flag);
  // Memory, about 100 bytes per configuration at k = 3, bounds the reach
  // rather than the default cap: k = 3, n = 240 has 12.4 M configurations.
  ppk::verify::ExploreOptions explore;
  explore.max_configs = 100'000'000;

  bool solves = false;
  {
    const ppk::core::KPartitionProtocol protocol(k);
    const ppk::pp::TransitionTable table(protocol);
    ppk::Stopwatch timer;
    const auto verdict =
        ppk::verify::verify_uniform_partition(protocol, table, n, explore);
    report(protocol.name().c_str(), verdict, timer.seconds());
    solves = verdict.solves;
  }

  if (k >= 3 && n >= 2u * k) {
    std::printf("\n");
    const ppk::core::BasicStrategyProtocol basic(k);
    const ppk::pp::TransitionTable table(basic);
    ppk::Stopwatch timer;
    const auto verdict =
        ppk::verify::verify_uniform_partition(basic, table, n, explore);
    report(basic.name().c_str(), verdict, timer.seconds());
    std::printf(
        "\n(The basic strategy wedges when >= ceil(n/k) builders appear;\n"
        " the full protocol's D states roll such builds back -- compare the\n"
        " two verdicts above.)\n");
  }
  return solves ? 0 : 1;
}
