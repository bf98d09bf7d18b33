// Generated inputs: every spec and request the benchmark sends is a pure
// function of the workload seed (dump_inputs prints them, which is what
// the determinism test compares).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One request of the ppkd_mix script.
struct Request {
  enum class Kind {
    kColdSweepPoint,  // simulate, paper-size n, fresh seed
    kColdLarge,       // simulate, n = 2e4, fresh seed
    kColdRing,        // the documented ring / epsilon-fair spec
    kColdMarkov,      // markov, small n, a (k, n) not asked before
    kResubmit,        // a warm-up (spec, seed) pair again: a cache hit
    kMarkovNewSeed,   // a warm-up markov spec under a new seed: a hit
  };
  Kind kind = Kind::kColdSweepPoint;
  /// Scenario document (one line, ppk-scenario-v1).
  std::string spec;
  /// For hits: index of the warm-up request whose result line this one
  /// must reproduce byte for byte; -1 for cold requests.
  int same_as = -1;
};

[[nodiscard]] const char* kind_name(Request::Kind kind);

/// Requests of the warm-up set (all cold, untimed): sweep points, one
/// n = 2e4 point, the ring spec and distinct small markov shapes.
inline constexpr std::size_t kWarmSet = 24;
/// After the warm-up, every kColdEvery-th request is a fresh cold sweep
/// point; every other one repeats a warm-up request.
inline constexpr std::size_t kColdEvery = 50;

/// The ppkd_mix request stream of one workload seed, generated in order
/// (the warm-up set first).
class MixScript {
 public:
  explicit MixScript(std::uint64_t seed);
  Request next();

 private:
  std::uint64_t rng_state_;
  std::vector<Request> warm_;
  std::size_t index_ = 0;
};

/// The first `count` requests of MixScript(seed).
[[nodiscard]] std::vector<Request> mix_script(std::uint64_t seed,
                                              std::size_t count);

/// Every generated input of a workload, one per line.
[[nodiscard]] std::string dump_inputs(const std::string& workload,
                                      std::uint64_t seed);

}  // namespace perfbench
