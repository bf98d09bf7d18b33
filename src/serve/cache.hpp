// Directory-backed result cache of the ppkd daemon (docs/ppkd.md).
//
// A scenario result is a pure function of the spec: simulate and
// conformance results additionally depend on the master seed (it names the
// trial streams), while verify and markov answers are exact and
// seed-independent.  The cache key mirrors that split:
//
//   sim-<hash16>-<seed>.json     simulate / conformance results
//   exact-<hash16>.json          verify / markov results
//
// where <hash16> is scenario_hash_hex() -- FNV-1a over the canonical spec
// serialization with the seed masked -- so resubmitting a spec that
// differs only in irrelevant formatting (or, for exact modes, in seed)
// hits the same entry.  Entries store the daemon's single-line result
// frame verbatim; a cache hit replays it byte-identically, which is what
// the smoke test asserts.  Writes go through io/atomic_file.hpp so a
// daemon killed mid-store never leaves a torn entry.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ppk::serve {

/// Schema tag every exact result frame must carry (as member
/// "exact_schema") to be served from the cache.  Bump it whenever the
/// meaning, fields or bits of an exact answer change -- v6 came with the
/// line Gauss-Seidel over free-flip lines (answers moved in their low
/// bits); v5 with the direct seed of small diagonally dominant SCC blocks
/// (answers moved in their low bits again); v4 with the plain, downstream-first Gauss-Seidel
/// sweep; v3 with the block-by-block sparse solve and the exact 1
/// for a lone bottom SCC; v2 introduced the solver-tagged frames of the
/// lumped Markov back end; v1 frames carried no tag at all and are
/// therefore recognized (and invalidated) by the tag's absence.
inline constexpr std::string_view kExactResultSchema = "ppkd-exact-v6";

/// Schema tag every simulate and conformance result frame must carry (as
/// member "sim_schema") to be served from the cache.  Bump it whenever the
/// trajectories behind a (spec, seed) change -- v3 came with the jump band
/// moving down to pp::kJumpCrossover = 320 (320 <= n < 512 left the agent
/// engine); v2 with kAuto's first jump band (512 <= n < 1024, so such
/// specs draw other trials than before); v1 frames carried no tag and are
/// recognized (and invalidated) by its absence, like pre-v2 exact frames.
inline constexpr std::string_view kSimResultSchema = "ppkd-sim-v3";

/// The (scenario-hash, seed) result cache.  Thread-compatible: the daemon
/// serializes access through its job lock.
class ResultCache {
 public:
  /// Entries live under `dir` (created on first store if missing).  An
  /// empty dir disables the cache: lookups miss, stores drop.
  explicit ResultCache(std::string dir);

  /// Seed-dependent raw lookup: whatever frame store() left under (hash,
  /// seed), tagged or not.
  [[nodiscard]] std::optional<std::string> find(const std::string& hash_hex,
                                                std::uint64_t seed) const;
  /// find() restricted to entries tagged with the current kSimResultSchema
  /// -- the daemon's simulate / conformance lookup.  An entry from an older
  /// daemon may hold trials of another engine, so replaying it would break
  /// "fresh == cached, byte for byte"; it is a miss, and the recomputed
  /// frame overwrites it.
  [[nodiscard]] std::optional<std::string> find_sim(
      const std::string& hash_hex, std::uint64_t seed) const;
  /// Seed-independent lookup (verify / markov).  Only entries tagged with
  /// the current kExactResultSchema are hits: an exact answer's meaning
  /// depends on the solver generation that produced it, so untagged
  /// entries written by an older daemon are treated as misses and
  /// recomputed (then re-stored with the tag) instead of being replayed
  /// as if current.
  [[nodiscard]] std::optional<std::string> find_exact(
      const std::string& hash_hex) const;

  /// Stores a result frame (overwrites; atomic).  Returns false when the
  /// cache is disabled or the write failed -- callers treat a failed
  /// store as a miss, never as an error.
  bool store(const std::string& hash_hex, std::uint64_t seed,
             const std::string& frame);
  /// store() for the seed-independent entries (verify / markov).
  bool store_exact(const std::string& hash_hex, const std::string& frame);

  /// The cache directory ("" when disabled).
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  /// False when constructed with an empty dir (cache off).
  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }

  /// Entry file path (exposed so tests and the smoke driver can inspect
  /// the cache without duplicating the naming scheme).
  [[nodiscard]] std::string entry_path(const std::string& hash_hex,
                                       std::uint64_t seed) const;
  /// entry_path() for the seed-independent entries.
  [[nodiscard]] std::string exact_entry_path(
      const std::string& hash_hex) const;

 private:
  std::string dir_;
};

}  // namespace ppk::serve
