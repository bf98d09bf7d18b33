// A test protocol given by an explicit list of ordered-pair rules, for
// hand-built transition tables (effective swaps, doubled moves, one-agent
// rules) that no shipped protocol has.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "pp/protocol.hpp"

namespace ppk::pp {

/// Every pair not in the list is null.  One output group, trivial
/// symmetry.
class RuleListProtocol final : public Protocol {
 public:
  struct Rule {
    StateId p, q, p_next, q_next;
  };
  RuleListProtocol(StateId num_states, std::vector<Rule> rules)
      : num_states_(num_states), rules_(std::move(rules)) {}

  [[nodiscard]] std::string name() const override { return "rule-list"; }
  [[nodiscard]] StateId num_states() const override { return num_states_; }
  [[nodiscard]] StateId initial_state() const override { return 0; }
  [[nodiscard]] Transition delta(StateId p, StateId q) const override {
    for (const Rule& r : rules_) {
      if (r.p == p && r.q == q) return {r.p_next, r.q_next};
    }
    return {p, q};
  }
  [[nodiscard]] GroupId group(StateId) const override { return 0; }
  [[nodiscard]] GroupId num_groups() const override { return 1; }

 private:
  StateId num_states_;
  std::vector<Rule> rules_;
};

}  // namespace ppk::pp
