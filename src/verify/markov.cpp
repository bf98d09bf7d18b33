#include "verify/markov.hpp"

#include <stdexcept>
#include <utility>

#include "pp/symmetry.hpp"

namespace ppk::verify {

std::optional<MarkovAnalysis> MarkovAnalysis::try_create(
    const pp::TransitionTable& table, const pp::Counts& initial,
    MarkovOptions options, std::string* why) {
  const pp::SymmetrySpec spec =
      options.symmetry.has_value() && options.method == MarkovMethod::kAuto
          ? *options.symmetry
          : pp::trivial_symmetry(table.num_states());
  auto lumped = LumpedMarkovAnalysis::try_build(table, spec, initial,
                                                options.lumped, why);
  if (!lumped.has_value()) return std::nullopt;
  return MarkovAnalysis(std::move(*lumped));
}

MarkovAnalysis::MarkovAnalysis(const pp::TransitionTable& table,
                               const pp::Counts& initial,
                               MarkovOptions options)
    : MarkovAnalysis([&] {
        std::string why;
        auto built = try_create(table, initial, std::move(options), &why);
        if (!built.has_value()) throw std::runtime_error(why);
        return std::move(built->lumped_);
      }()) {}

}  // namespace ppk::verify
