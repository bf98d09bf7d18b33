#include "pp/faults.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ppk::pp {

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kJoin:
      return "join";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kSleep:
      return "sleep";
    case FaultKind::kReset:
      return "reset";
  }
  return "?";
}

std::vector<FaultEvent> make_fault_schedule(const FaultRates& rates,
                                            std::uint64_t horizon,
                                            std::uint64_t seed) {
  struct Channel {
    double rate;
    FaultKind kind;
  };
  const Channel channels[] = {
      {rates.crash, FaultKind::kCrash},
      {rates.join, FaultKind::kJoin},
      {rates.corrupt, FaultKind::kCorrupt},
      {rates.sleep, FaultKind::kSleep},
  };

  Xoshiro256 rng(seed);
  std::vector<FaultEvent> events;
  for (const Channel& channel : channels) {
    if (channel.rate <= 0.0) continue;
    PPK_EXPECTS(channel.rate < 1.0);
    // Successive firing gaps of a per-interaction Bernoulli(p) process are
    // geometric; sample them directly instead of flipping `horizon` coins.
    std::uint64_t position = 0;
    while (true) {
      const double u = 1.0 - rng.uniform01();  // in (0, 1]
      // Compare as double before casting: a tiny rate can produce a gap
      // beyond uint64 range.
      const double gap_fp = std::log(u) / std::log1p(-channel.rate);
      if (gap_fp >= static_cast<double>(horizon - position)) break;
      const auto gap = static_cast<std::uint64_t>(gap_fp);
      position += gap;
      FaultEvent event;
      event.at = position;
      event.kind = channel.kind;
      if (channel.kind == FaultKind::kSleep) {
        event.duration = rates.sleep_duration;
      }
      events.push_back(event);
      if (++position >= horizon) break;
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return events;
}

}  // namespace ppk::pp
