// perfbench: runs one workload (gated, tracing off) or the traced
// per-layer run, checks the answers, and writes DIR/report.json.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --run-dir DIR --ppkd PATH [--git-rev REV]
//   perfbench --workload NAME --seed N --dump-inputs
//   perfbench --self-test
//
// The report holds the result (correct, attempted, failed, metrics), the
// machine record, the first failure reasons, sample counts, tails and, for
// a traced run, every span.  run.py prints the result line from it.

#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunConfig;
using perfbench::WorkloadResult;

const std::map<std::string, std::function<WorkloadResult(const RunConfig&)>>&
gated_workloads() {
  static const std::map<std::string,
                        std::function<WorkloadResult(const RunConfig&)>>
      table = {
          {"paper_sweep", perfbench::run_paper_sweep},
          {"large_n", perfbench::run_large_n},
          {"exact_ceiling", perfbench::run_exact_ceiling},
          {"ppkd_mix", perfbench::run_ppkd_mix},
      };
  return table;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --run-dir DIR --ppkd PATH "
               "[--git-rev REV] | --dump-inputs | --self-test\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.threads = perfbench::pool_threads();
  bool dump = false;
  bool setup_only = false;
  bool have_seed = false;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        cfg.workload = value();
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (arg == "--trace") {
        trace = std::stoi(value());
      } else if (arg == "--run-dir") {
        cfg.run_dir = value();
      } else if (arg == "--ppkd") {
        cfg.ppkd = value();
      } else if (arg == "--git-rev") {
        cfg.git_rev = value();
      } else if (arg == "--dump-inputs") {
        dump = true;
      } else if (arg == "--setup-only") {
        setup_only = true;
      } else if (arg == "--self-test") {
        return perfbench::run_self_test();
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (gated_workloads().count(cfg.workload) == 0) {
    return usage("unknown --workload");
  }
  if (dump) {
    std::cout << perfbench::dump_inputs(cfg.workload, cfg.seed);
    return 0;
  }
  if (setup_only) {
    // Child of timed_setups(): build the set-up, report, exit.
    perfbench::build_setup(cfg);
    std::fputs("ready\n", stdout);
    std::fflush(stdout);
    return 0;
  }
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (cfg.run_dir.empty() || cfg.ppkd.empty() || !(cfg.seconds > 0)) {
    return usage("--run-dir, --ppkd and --seconds > 0 are required");
  }
  cfg.trace = trace == 1;

  const double calibration = perfbench::calibration_ns_per_iter();
  WorkloadResult result;
  try {
    result = cfg.trace ? perfbench::run_traced(cfg)
                       : gated_workloads().at(cfg.workload)(cfg);
  } catch (const std::exception& e) {
    // Unwinding has stopped any daemon; no report without a result.
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& [name, m] : result.metrics) {
    if (!perfbench::valid_metric_name(name)) {
      result.outcome.record(false, "invalid metric name " + name);
    }
  }

  const bool correct = result.outcome.failed == 0;
  {
    std::ofstream file(cfg.run_dir + "/report.json");
    ppk::io::JsonWriter out(file);
    out.begin_object();
    out.member("workload", cfg.workload);
    out.member("seed", cfg.seed);
    out.member("trace", cfg.trace);
    out.key("machine");
    perfbench::write_machine(out, cfg.run_dir, cfg.git_rev, calibration);
    out.member("correct", correct);
    out.member("attempted", result.outcome.attempted);
    out.member("failed", result.outcome.failed);
    out.key("reasons");
    out.begin_array();
    for (const std::string& reason : result.outcome.reasons) {
      out.value(reason);
    }
    out.end_array();
    out.member("answer_digest", result.answer_digest);
    out.key("metrics");
    out.begin_object();
    for (const auto& [name, m] : result.metrics) {
      out.key(name);
      out.begin_object();
      out.member("value", m.value);
      out.member("unit", m.unit);
      out.end_object();
    }
    out.end_object();
    for (const auto& [key, write] : result.report) {
      out.key(key);
      write(out);
    }
    out.end_object();
    if (!file) {
      std::fprintf(stderr, "perfbench: cannot write the report\n");
      return 1;
    }
  }
  for (const std::string& reason : result.outcome.reasons) {
    std::fprintf(stderr, "perfbench: failed: %s\n", reason.c_str());
  }
  return 0;
}
