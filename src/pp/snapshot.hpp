// Engine snapshots: the serializable mid-run state of a simulator.
//
// Every simulator exposes `snapshot() -> Snapshot` and
// `restore(const Snapshot&)` with one contract: restoring a snapshot into a
// freshly constructed engine (same constructor arguments -- table, initial
// configuration, topology, schedule) and resuming produces a trajectory
// bit-identical to the engine that was snapshotted, provided both are driven
// with the same sequence of resume() grants.  The conformance fuzzer's
// snapshot net (verify/conformance.hpp) enforces this for all engines,
// round-tripping the snapshot through its serialized form.
//
// A snapshot captures *dynamic* state only: per-agent states or counts, the
// RNG stream position(s), interaction counters, pending null-run carry,
// churn bookkeeping.  Everything derivable from constructor arguments
// (transition table, topology, fault schedule, weight caches) is rebuilt by
// restore() instead of serialized, which keeps snapshots small and makes
// them robust against engine-internal cache layout changes.
//
// The payload is a flat vector of 64-bit words with an engine tag; the
// word-level layout is private to each engine and versioned by the tag.
// io/snapshot_io.hpp provides the text serialization used by checkpoints.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pp/population.hpp"
#include "pp/protocol.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ppk::pp {

/// A serializable engine state: an engine tag ("agent", "jump", ...) plus
/// the engine-defined word payload.
struct Snapshot {
  std::string engine;
  std::vector<std::uint64_t> words;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Append-only builder used by the engines' snapshot() implementations.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::string engine) { snap_.engine = std::move(engine); }

  void u64(std::uint64_t value) { snap_.words.push_back(value); }

  /// The full 256-bit RNG state (4 words).
  void rng(const Xoshiro256& rng) {
    for (const std::uint64_t word : rng.state()) u64(word);
  }

  /// Length-prefixed state-count vector.
  void counts(const Counts& counts) {
    u64(counts.size());
    for (const std::uint32_t c : counts) u64(c);
  }

  /// Length-prefixed per-agent state array.
  void states(const std::vector<StateId>& states) {
    u64(states.size());
    for (const StateId s : states) u64(s);
  }

  [[nodiscard]] Snapshot take() && { return std::move(snap_); }

 private:
  Snapshot snap_;
};

/// Cursor over a snapshot payload used by the engines' restore()
/// implementations.  Layout violations are contract violations: a snapshot
/// that reaches restore() has already passed io-level parsing, so a
/// mismatch means the caller paired it with the wrong engine or build.
class SnapshotReader {
 public:
  SnapshotReader(const Snapshot& snap, std::string_view expected_engine)
      : snap_(&snap) {
    PPK_EXPECTS(snap.engine == expected_engine);
  }

  [[nodiscard]] std::uint64_t u64() {
    PPK_EXPECTS(cursor_ < snap_->words.size());
    return snap_->words[cursor_++];
  }

  [[nodiscard]] std::uint32_t u32() {
    const std::uint64_t v = u64();
    PPK_EXPECTS(v <= UINT32_MAX);
    return static_cast<std::uint32_t>(v);
  }

  void rng(Xoshiro256& rng) {
    std::array<std::uint64_t, 4> state{};
    for (auto& word : state) word = u64();
    rng.set_state(state);
  }

  [[nodiscard]] Counts counts() {
    const std::uint64_t len = u64();
    Counts result(len, 0);
    for (auto& c : result) c = u32();
    return result;
  }

  /// In-place variant of counts(): reads the length-prefixed vector into
  /// `out`, whose size must match the stored length (the engine knows its
  /// state-space size from construction, so a mismatch is a wrong-engine
  /// pairing).  Keeps restore() allocation-free.
  void counts_into(Counts& out) {
    const std::uint64_t len = u64();
    PPK_EXPECTS(len == out.size());
    for (auto& c : out) c = u32();
  }

  [[nodiscard]] std::vector<StateId> states(StateId num_states) {
    const std::uint64_t len = u64();
    std::vector<StateId> result(len, 0);
    for (auto& s : result) {
      const std::uint64_t v = u64();
      PPK_EXPECTS(v < num_states);
      result_assign(s, v);
    }
    return result;
  }

  /// Call last: the payload must be fully consumed.
  void finish() const { PPK_EXPECTS(cursor_ == snap_->words.size()); }

 private:
  static void result_assign(StateId& s, std::uint64_t v) {
    s = static_cast<StateId>(v);
  }

  const Snapshot* snap_;
  std::size_t cursor_ = 0;
};

}  // namespace ppk::pp
