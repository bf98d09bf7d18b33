#include "pp/effective_pair_sampler.hpp"

#include <unordered_map>

namespace ppk::pp {

EffectivePairSampler::EffectivePairSampler(const TransitionTable& table,
                                           const Counts& counts)
    : table_(&table) {
  PPK_EXPECTS(counts.size() == table.num_states());
  for (const std::uint32_t c : counts) n_ += c;
  PPK_EXPECTS(n_ >= 2);

  const std::size_t num_states = table.num_states();
  // Distinct transfers a -> b, numbered in order of first use; the key is
  // a * |Q| + b.
  std::unordered_map<std::size_t, std::uint32_t> transfer_id;
  const auto transfer = [&](StateId from, StateId to) -> std::uint32_t {
    if (from == to) return kNoTransfer;
    const auto [it, inserted] = transfer_id.try_emplace(
        from * num_states + to, static_cast<std::uint32_t>(transfers_.size()));
    if (inserted) transfers_.push_back({0, from, to, 0, 0});
    return it->second;
  };
  row_begin_.assign(num_states + 1, 0);
  for (StateId p = 0; p < num_states; ++p) {
    for (StateId q = 0; q < num_states; ++q) {
      if (!table.effective(p, q)) continue;
      const Transition& t = table.apply(p, q);
      columns_of_row_.push_back(q);
      transfers_of_pair_.push_back(
          {transfer(p, t.initiator), transfer(q, t.responder)});
    }
    row_begin_[p + 1] = static_cast<std::uint32_t>(columns_of_row_.size());
  }

  const auto eff = [&table](StateId p, StateId q) -> std::int64_t {
    return table.effective(p, q) ? 1 : 0;
  };
  increments_.assign(2 * transfers_.size() * num_states, 0);
  for (std::size_t id = 0; id < transfers_.size(); ++id) {
    Transfer& t = transfers_[id];
    const StateId a = t.from;
    const StateId b = t.to;
    t.weight_const = eff(a, a) + eff(b, b) - eff(a, b) - eff(b, a);
    std::int8_t* const row_inc = &increments_[2 * id * num_states];
    std::int8_t* const col_inc = row_inc + num_states;
    for (StateId x = 0; x < num_states; ++x) {
      row_inc[x] = static_cast<std::int8_t>(eff(x, b) - eff(x, a));
      col_inc[x] = static_cast<std::int8_t>(eff(b, x) - eff(a, x));
      if (row_inc[x] != 0 || col_inc[x] != 0) {
        if (t.begin == t.end) t.begin = x;  // first nonzero entry
        t.end = static_cast<StateId>(x + 1);
      }
    }
  }
  rebuild(counts);
}

void EffectivePairSampler::rebuild(const Counts& counts) {
  const std::size_t num_states = counts.size();
  row_sum_.assign(num_states, 0);
  col_sum_.assign(num_states, 0);
  total_weight_ = 0;
  for (StateId p = 0; p < num_states; ++p) {
    const std::int64_t c_p = counts[p];
    for (std::uint32_t i = row_begin_[p]; i < row_begin_[p + 1]; ++i) {
      const StateId q = columns_of_row_[i];
      row_sum_[p] += static_cast<std::int64_t>(counts[q]) - (p == q ? 1 : 0);
      col_sum_[q] += c_p;
    }
    // c_p * row_sum_p is 0 whenever c_p is, even at row_sum_p = -1.
    total_weight_ += static_cast<std::uint64_t>(c_p * row_sum_[p]);
  }
}

}  // namespace ppk::pp
