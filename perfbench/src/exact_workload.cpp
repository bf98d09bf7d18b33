// exact_ceiling: the answer ppkd serves in markov mode, computed through
// verify::MarkovAnalysis exactly as the daemon does it.

#include <bit>
#include <cmath>
#include <sstream>

#include "core/invariants.hpp"
#include "util/rng.hpp"
#include "verify/markov.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace pp = ppk::pp;
namespace core = ppk::core;
namespace verify = ppk::verify;

namespace {

/// Reference answers, pinned from the lumped solver and cross-checked
/// against the dense back end where it reaches (check_dense_agreement).
const ExactInstance kK2{2, 160, 35159.468358745275, 1};
const ExactInstance kK3{3, 36, 1346.5513005225162, 1};

/// Largest k = 2 population the dense back end explores under its default
/// configuration cap, and its answer.
constexpr std::uint32_t kDenseN = 40;

verify::MarkovOptions daemon_options(const pp::Protocol& protocol) {
  // Mirrors ScenarioService::run_exact at the daemon's default orbit cap.
  verify::MarkovOptions options;
  options.symmetry = protocol.symmetry();
  options.lumped.max_orbits = 1'000'000;
  options.explore.max_configs = 1'000'000;
  return options;
}

}  // namespace

double relative_diff(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) / scale;
}

std::vector<ExactInstance> exact_instances(std::uint64_t workload_seed) {
  std::vector<ExactInstance> out = {kK2, kK3};
  if (ppk::derive_stream_seed(workload_seed, 0xe7ac) & 1U) {
    std::swap(out[0], out[1]);
  }
  return out;
}

ExactCeiling::ExactCeiling(std::uint64_t workload_seed)
    : instances_(exact_instances(workload_seed)),
      k2_(std::make_unique<core::KPartitionProtocol>(2)),
      k3_(std::make_unique<core::KPartitionProtocol>(3)),
      t2_(std::make_unique<pp::TransitionTable>(*k2_)),
      t3_(std::make_unique<pp::TransitionTable>(*k3_)) {}

const core::KPartitionProtocol& ExactCeiling::protocol(pp::GroupId k) const {
  return k == 2 ? *k2_ : *k3_;
}

const pp::TransitionTable& ExactCeiling::table(pp::GroupId k) const {
  return k == 2 ? *t2_ : *t3_;
}

ExactCeiling::Answer ExactCeiling::run(Tracer* tracer) const {
  Answer answer;
  const double t0 = now_s();
  for (const ExactInstance& inst : instances_) {
    InstanceAnswer a;
    const core::KPartitionProtocol& kp = protocol(inst.k);
    pp::Counts initial(kp.num_states(), 0);
    initial[kp.initial_state()] = inst.n;
    std::string why;
    double s0 = now_s();
    std::optional<verify::MarkovAnalysis> analysis;
    {
      Span span(tracer, "verify.markov.try_create");
      analysis = verify::MarkovAnalysis::try_create(table(inst.k), initial,
                                                    daemon_options(kp), &why);
    }
    a.create_s = now_s() - s0;
    if (!analysis) {
      a.error = "try_create: " + why;
      answer.instances.push_back(std::move(a));
      continue;
    }
    a.solver = analysis->method_name();
    a.reachable_configs = analysis->reachable_configs();
    try {
      s0 = now_s();
      std::optional<double> expected;
      {
        Span span(tracer, "verify.markov.expected_hitting_time");
        const std::uint32_t n = inst.n;
        expected = analysis->expected_hitting_time(
            [&kp, n](const pp::Counts& c) {
              return core::matches_stable_pattern(kp, n, c);
            });
      }
      a.hitting_s = now_s() - s0;
      s0 = now_s();
      std::vector<verify::MarkovAnalysis::Absorption> absorptions;
      {
        Span span(tracer, "verify.markov.absorption_probabilities");
        absorptions = analysis->absorption_probabilities();
      }
      a.absorption_s = now_s() - s0;
      a.expected = expected.value_or(std::nan(""));
      for (const auto& ab : absorptions) a.absorption.push_back(ab.probability);
      a.ok = expected.has_value();
      if (!a.ok) a.error = "stable pattern not reached almost surely";
    } catch (const std::exception& e) {
      a.error = std::string("uncertified solve: ") + e.what();
    }
    answer.instances.push_back(std::move(a));
  }
  answer.seconds = now_s() - t0;
  return answer;
}

void ExactCeiling::check(const Answer& answer, Outcome& out) const {
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const ExactInstance& ref = instances_[i];
    const InstanceAnswer& a = answer.instances[i];
    const std::string where = "exact_ceiling k=" + std::to_string(ref.k) +
                              " n=" + std::to_string(ref.n) + ": ";
    if (!a.ok) {
      out.record(false, where + a.error);
      continue;
    }
    std::ostringstream why;
    why.precision(17);
    why << where << "expected interactions " << a.expected
        << " differs from the pinned " << ref.expected_interactions;
    out.record(relative_diff(a.expected, ref.expected_interactions) <= 1e-9,
               why.str());
    double total = 0.0;
    for (const double p : a.absorption) total += p;
    out.record(a.absorption.size() == ref.bottom_sccs &&
                   std::fabs(total - 1.0) <= 1e-9 && a.solver == "lumped",
               where + "absorption probabilities off the pinned shape");
  }
}

void ExactCeiling::check_dense_agreement(Outcome& out) const {
  const core::KPartitionProtocol& kp = *k2_;
  pp::Counts initial(kp.num_states(), 0);
  initial[kp.initial_state()] = kDenseN;
  const auto target = [&kp](const pp::Counts& c) {
    return core::matches_stable_pattern(kp, kDenseN, c);
  };
  verify::MarkovOptions dense_options = daemon_options(kp);
  dense_options.method = verify::MarkovMethod::kDense;
  std::string why;
  const auto dense =
      verify::MarkovAnalysis::try_create(*t2_, initial, dense_options, &why);
  const auto lumped = verify::MarkovAnalysis::try_create(
      *t2_, initial, daemon_options(kp), &why);
  bool ok = dense.has_value() && lumped.has_value();
  if (ok) {
    try {
      const auto d = dense->expected_hitting_time(target);
      const auto l = lumped->expected_hitting_time(target);
      ok = d && l && relative_diff(*d, *l) <= 1e-9;
    } catch (const std::exception&) {
      ok = false;
    }
  }
  out.record(ok, "exact_ceiling: dense and lumped disagree at k=2 n=" +
                     std::to_string(kDenseN) + (why.empty() ? "" : ": " + why));
}

std::string ExactCeiling::digest(const Answer& answer) {
  std::ostringstream out;
  for (const InstanceAnswer& a : answer.instances) {
    // Doubles by their bits: equal digests mean bit-identical answers.
    out << a.ok << ',' << a.solver << ',' << a.reachable_configs << ','
        << std::bit_cast<std::uint64_t>(a.expected);
    for (const double p : a.absorption) {
      out << ',' << std::bit_cast<std::uint64_t>(p);
    }
    out << ';';
  }
  return std::to_string(fnv1a(out.str()));
}

WorkloadResult run_exact_ceiling(const RunConfig& cfg) {
  WorkloadResult result;
  const std::vector<double> setups = timed_setups(cfg);
  const auto exact = std::make_unique<ExactCeiling>(cfg.seed);

  std::vector<double> answers;
  ExactCeiling::Answer first;
  std::string first_digest;
  const double deadline = now_s() + cfg.seconds;
  while (answers.size() < 3 || now_s() < deadline) {
    ExactCeiling::Answer a = exact->run(nullptr);
    answers.push_back(a.seconds);
    exact->check(a, result.outcome);
    const std::string d = ExactCeiling::digest(a);
    if (first_digest.empty()) {
      first_digest = d;
      first = std::move(a);
    }
    result.outcome.record(d == first_digest,
                          "exact_ceiling: answer differs between repeats");
  }
  exact->check_dense_agreement(result.outcome);
  result.answer_digest = first_digest;

  result.metrics["setup_s"] = {median(setups), "s"};
  result.metrics["answer_ms"] = {median(answers) * 1e3, "ms"};
  result.metrics["peak_rss_mb"] = {self_peak_rss_mb(), "MiB"};
  result.report["samples"] = [count = answers.size(), first,
                              instances = exact->instances()](
                                 ppk::io::JsonWriter& out) {
    out.begin_object();
    out.member("answers", static_cast<std::uint64_t>(count));
    out.key("instances");
    out.begin_array();
    for (std::size_t i = 0; i < first.instances.size(); ++i) {
      const ExactCeiling::InstanceAnswer& a = first.instances[i];
      out.begin_object();
      out.member("k", static_cast<unsigned>(instances[i].k));
      out.member("n", instances[i].n);
      out.member("configs", a.reachable_configs);
      out.member("expected", a.expected);
      out.member("bottom_sccs",
                 static_cast<std::uint64_t>(a.absorption.size()));
      out.member("create_ms", a.create_s * 1e3);
      out.member("hitting_ms", a.hitting_s * 1e3);
      out.member("absorption_ms", a.absorption_s * 1e3);
      out.end_object();
    }
    out.end_array();
    out.end_object();
  };
  return result;
}

}  // namespace perfbench
