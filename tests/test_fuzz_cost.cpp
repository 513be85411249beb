// Cost of a fuzz step as the corpus fills.
//
// One execution of the fuzzer must not cost more because the corpus or
// the coverage set is larger: guidance is read from the corpus in place,
// and the coverage and first-seen tables are flat.  This suite replaces
// global operator new with a counting version and counts the heap
// allocations inside one sched::fuzz call on the benchmark's proof-sym
// job, at a short and at a five times longer budget.  The campaign is
// deterministic, so the counts repeat exactly from run to run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "fuzz_jobs.hpp"
#include "sched/fuzzer.hpp"
#include "verify/run.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Kept out of line: inlined into a standard allocator, a free() of memory
// from operator new reads to GCC as a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace ff::sched {
namespace {

struct Count {
  std::uint64_t allocations = 0;
  std::uint64_t steps = 0;

  [[nodiscard]] double per_step() const {
    return static_cast<double>(allocations) / static_cast<double>(steps);
  }
};

Count count_campaign(std::uint64_t steps) {
  verify::JobSpec spec = testutil::proof_sym_job();
  spec.seed = 1;
  spec.fuzz_steps = steps;
  const verify::Instance instance = verify::instantiate(spec);
  const SimWorld world = instance.world();
  const FuzzOptions options = testutil::fuzz_options_of(instance.spec);

  g_allocations = 0;
  g_counting = true;
  const FuzzResult run = fuzz(world, options);
  g_counting = false;

  EXPECT_EQ(run.stats.total_steps, steps) << "the campaign ended early";
  EXPECT_EQ(run.stats.violations_found, 0u);
  return Count{g_allocations, run.stats.total_steps};
}

TEST(FuzzCost, AllocationsPerStepStayFlatAsTheCorpusFills) {
  const Count early = count_campaign(20'000);
  const Count late = count_campaign(100'000);
  ASSERT_GT(early.steps, 0u);
  ASSERT_GT(late.steps, 0u);
  EXPECT_LE(late.per_step(), 1.25 * early.per_step())
      << early.allocations << " allocations in " << early.steps
      << " steps, then " << late.allocations << " in " << late.steps;
}

}  // namespace
}  // namespace ff::sched
