// Verifies the observability layer's "zero overhead when disabled" claim at
// its strongest: with no sink attached, the engines' steady-state loops
// perform no heap allocation at all -- the hook is a single predictable
// null-pointer test and nothing else.
//
// The test replaces the global allocation functions with counting wrappers
// and measures the allocation delta across a long stretch of simulation.
// It lives in its own binary so the instrumented operator new cannot
// interfere with (or be perturbed by) unrelated tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/population.hpp"
#include "pp/transition_table.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using ppk::core::KPartitionProtocol;

TEST(ObsZeroAlloc, AgentEngineSteadyStateAllocatesNothingWithoutSink) {
  // The agent array is the hot pairwise path the paper's sweeps run.
  const KPartitionProtocol protocol(4);
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = 200;

  ppk::pp::AgentSimulator sim(
      table,
      ppk::pp::Population(n, protocol.num_states(), protocol.initial_state()),
      123);
  auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
  oracle->reset(sim.population().counts());
  for (int i = 0; i < 256; ++i) sim.step(*oracle);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 20000; ++i) sim.step(*oracle);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "the disabled observability path must not allocate";
}

TEST(ObsZeroAlloc, GraphEngineSteadyStateAllocatesNothingWithoutSink) {
  // The agent array's topology draw rule: its dormant obs path must stay
  // allocation-free like the other engines'.
  const KPartitionProtocol protocol(4);
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = 64;

  ppk::pp::AgentSimulator sim(
      table, ppk::pp::InteractionGraph::complete(n),
      ppk::pp::Population(n, protocol.num_states(), protocol.initial_state()),
      123);
  auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
  oracle->reset(sim.population().counts());
  for (int i = 0; i < 256; ++i) sim.step(*oracle);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 20000; ++i) sim.step(*oracle);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "the disabled observability path must not allocate";
}

TEST(ObsZeroAlloc, AdversarialEngineSteadyStateAllocatesNothingWithoutSink) {
  // The agent array's fairness draw rule: epsilon = 0.25 keeps the
  // adversary's probe loop (the extra branch) on the measured path.
  const KPartitionProtocol protocol(4);
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = 64;

  ppk::pp::AgentSimulator sim(
      protocol, table,
      ppk::pp::Population(n, protocol.num_states(), protocol.initial_state()),
      ppk::pp::FairnessSpec::epsilon_fair(0.25), 123);
  auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
  oracle->reset(sim.population().counts());
  for (int i = 0; i < 256; ++i) sim.step(*oracle);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 20000; ++i) sim.step(*oracle);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "the disabled observability path must not allocate";
}

TEST(ObsZeroAlloc, JumpEngineSteadyStateAllocatesNothingWithoutSink) {
  const KPartitionProtocol protocol(4);
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = 200;
  ppk::pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;

  ppk::pp::JumpSimulator sim(table, initial, 123);
  auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
  oracle->reset(sim.counts());
  for (int i = 0; i < 64; ++i) sim.step(*oracle);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 5000 && sim.step(*oracle); ++i) {
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "the disabled observability path must not allocate";
}

}  // namespace
