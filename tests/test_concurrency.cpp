// Concurrency hardening: the fault-injection substrate under parallel
// hammering — budget invariants, trace integrity, jitter decorator — and
// seed-parameterized property sweeps of the randomized harnesses.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "legacy/f_plus_one.hpp"
#include "legacy/machines.hpp"
#include "faults/bank.hpp"
#include "faults/budget.hpp"
#include "faults/faulty_cas.hpp"
#include "faults/policy.hpp"
#include "objects/atomic_cas.hpp"
#include "runtime/jitter.hpp"
#include "runtime/stress.hpp"
#include "sched/random_walk.hpp"
#include "util/spin_barrier.hpp"

namespace ff {
namespace {

using model::FaultKind;
using model::Value;

TEST(BudgetConcurrency, NeverExceedsFTimesTUnderHammering) {
  constexpr std::uint32_t kObjects = 8;
  constexpr std::uint32_t kF = 3;
  constexpr std::uint32_t kT = 5;
  constexpr std::uint32_t kThreads = 8;
  constexpr int kOpsPerThread = 2000;

  faults::FaultBudget budget(kObjects, kF, kT);
  util::SpinBarrier barrier(kThreads);
  std::atomic<std::uint64_t> granted{0};
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kThreads; ++p) {
    threads.emplace_back([&, p] {
      barrier.arrive_and_wait();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto obj =
            static_cast<objects::ObjectId>((p + i) % kObjects);
        if (budget.try_consume(obj)) {
          granted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_LE(granted.load(), kF * kT);
  EXPECT_LE(budget.designated_count(), kF);
  EXPECT_EQ(budget.total_faults_used(), granted.load());
  std::uint32_t designated = 0;
  for (objects::ObjectId o = 0; o < kObjects; ++o) {
    if (budget.is_designated(o)) {
      ++designated;
      EXPECT_LE(budget.faults_used(o), kT);
    } else {
      EXPECT_EQ(budget.faults_used(o), 0u);
    }
  }
  EXPECT_LE(designated, kF);
  // With 8 threads hammering, the budget should actually be consumed.
  EXPECT_EQ(granted.load(), kF * kT);
}

TEST(FaultyCasConcurrency, TraceCoherentAndBudgetedUnderHammering) {
  constexpr std::uint32_t kThreads = 6;
  constexpr int kOpsPerThread = 500;
  constexpr std::uint32_t kT = 7;

  faults::AlwaysFault policy;
  faults::FaultBudget budget(1, 1, kT);
  faults::VectorTraceSink sink;
  faults::FaultyCas object(0, FaultKind::kOverriding, &policy, &budget,
                           &sink);

  util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kThreads; ++p) {
    threads.emplace_back([&, p] {
      barrier.arrive_and_wait();
      for (int i = 0; i < kOpsPerThread; ++i) {
        object.cas(Value::of(p * 10000 + i), Value::of(p * 10000 + i + 1),
                   p);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto trace = sink.snapshot();
  EXPECT_EQ(trace.size(), kThreads * kOpsPerThread);
  // Every event individually satisfies the Φ/Φ′ it claims.
  EXPECT_FALSE(consensus::find_incoherent_event(trace).has_value());
  // Manifested faults within budget.
  const auto acc = consensus::account_faults(trace);
  EXPECT_LE(acc.total_manifested, kT);
  // Sequence numbers are dense and unique.
  std::vector<bool> seen(trace.size(), false);
  for (const auto& ev : trace) {
    ASSERT_LT(ev.seq, trace.size());
    EXPECT_FALSE(seen[ev.seq]);
    seen[ev.seq] = true;
  }
}

TEST(FaultyCasConcurrency, RegisterChainIsLinearizable) {
  // The sequence of (before → after) transitions recorded at the
  // linearization points must chain: sorted by seq, each event's before
  // equals the previous event's after (single object, every event is a
  // point mutation or identity).
  constexpr std::uint32_t kThreads = 4;
  constexpr int kOpsPerThread = 400;
  faults::AlwaysFault policy;
  faults::VectorTraceSink sink;
  faults::FaultyCas object(0, FaultKind::kOverriding, &policy, nullptr,
                           &sink);

  util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kThreads; ++p) {
    threads.emplace_back([&, p] {
      barrier.arrive_and_wait();
      for (int i = 0; i < kOpsPerThread; ++i) {
        object.cas(Value::bottom(), Value::of(p * 10000 + i), p);
      }
    });
  }
  for (auto& t : threads) t.join();

  auto trace = sink.snapshot();
  std::sort(trace.begin(), trace.end(),
            [](const auto& a, const auto& b) { return a.seq < b.seq; });
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].obs.before, trace[i - 1].obs.after)
        << "linearization chain broken at seq " << i;
  }
}

TEST(JitterCas, TransparentlyForwards) {
  objects::AtomicCas inner(0);
  runtime::JitterCas jitter(inner, /*seed=*/42, /*max_yields=*/2);
  EXPECT_EQ(jitter.cas(Value::bottom(), Value::of(5), 0), Value::bottom());
  EXPECT_EQ(jitter.debug_read(), Value::of(5));
  EXPECT_EQ(inner.debug_read(), Value::of(5));
  jitter.reset();
  EXPECT_TRUE(inner.debug_read().is_bottom());
  EXPECT_EQ(jitter.id(), inner.id());
}

TEST(JitterCas, ZeroYieldsIsExactPassThrough) {
  objects::AtomicCas inner(/*id=*/0, /*initial=*/Value::of(0));
  runtime::JitterCas jitter(inner, 1, 0);
  for (std::uint64_t i = 0; i < 100; ++i) {
    jitter.cas(Value::of(i), Value::of(i + 1), 0);
  }
  EXPECT_EQ(inner.debug_read(), Value::of(100));
}

TEST(FaultyCasBank, ConstructsAndResets) {
  faults::AlwaysFault policy;
  faults::FaultyCasBank::Options options;
  options.objects = 3;
  options.f = 2;
  options.t = 1;
  options.policy = &policy;
  faults::FaultyCasBank bank(options);
  ASSERT_EQ(bank.raw().size(), 3u);
  bank.object(0).cas(Value::bottom(), Value::of(1), 0);
  EXPECT_EQ(bank.object(0).debug_read(), Value::of(1));
  bank.reset();
  EXPECT_TRUE(bank.object(0).debug_read().is_bottom());
  EXPECT_EQ(bank.budget()->total_faults_used(), 0u);
}

TEST(FaultyCasBank, StaticDesignationRespected) {
  faults::AlwaysFault policy;
  faults::FaultyCasBank::Options options;
  options.objects = 3;
  options.f = 1;
  options.designated = {1};
  options.policy = &policy;
  faults::FaultyCasBank bank(options);
  // Drive object 0 into a would-fault situation: designation forbids it.
  bank.object(0).cas(Value::bottom(), Value::of(7), 0);
  const Value old = bank.object(0).cas(Value::bottom(), Value::of(9), 0);
  EXPECT_EQ(old, Value::of(7));
  EXPECT_EQ(bank.object(0).debug_read(), Value::of(7));  // no override
  // Object 1 is designated: the same pattern overrides.
  bank.object(1).cas(Value::bottom(), Value::of(7), 0);
  bank.object(1).cas(Value::bottom(), Value::of(9), 0);
  EXPECT_EQ(bank.object(1).debug_read(), Value::of(9));
}

TEST(JitterCas, IntegratesWithStressCampaign) {
  // Figure 2 over jitter-wrapped faulty objects: the decorator widens
  // schedule coverage and must not perturb correctness.
  faults::ProbabilisticFault policy(0.5, 5);
  faults::FaultyCasBank::Options options;
  options.objects = 3;
  options.f = 2;
  options.policy = &policy;
  faults::FaultyCasBank bank(options);
  std::vector<std::unique_ptr<runtime::JitterCas>> jittered;
  std::vector<objects::CasObject*> raw;
  for (std::uint32_t i = 0; i < 3; ++i) {
    jittered.push_back(
        std::make_unique<runtime::JitterCas>(bank.object(i), 100 + i, 3));
    raw.push_back(jittered.back().get());
  }
  consensus::FPlusOneConsensus protocol(raw);

  runtime::StressOptions stress;
  stress.processes = 4;
  stress.budget.max_units = 100;
  const auto report = runtime::run_stress(
      protocol, stress, [&](std::uint64_t) { bank.reset(); });
  EXPECT_TRUE(report.all_ok()) << report.violations();
}

TEST(StressHarness, MakeInputsAreDistinctAndDeterministic) {
  const auto a = runtime::make_inputs(8, 3, 42);
  const auto b = runtime::make_inputs(8, 3, 42);
  EXPECT_EQ(a, b);
  std::set<consensus::InputValue> distinct(a.begin(), a.end());
  EXPECT_EQ(distinct.size(), 8u);
  for (const auto v : a) {
    EXPECT_NE(v, consensus::kReservedInput);
    EXPECT_LT(v, 0xFFFFFFFEULL);  // staged-protocol safe
  }
  const auto c = runtime::make_inputs(8, 4, 42);
  EXPECT_NE(a, c);
}

// --- seed-parameterized property sweeps --------------------------------------

class WalkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WalkProperty, WithinBudgetWalksAlwaysAgree) {
  const std::uint64_t seed = GetParam();
  // Fig 2, f=2 faulty of 3 objects, unbounded faults, 4 processes.
  sched::SimConfig config;
  config.num_objects = 3;
  config.kind = FaultKind::kOverriding;
  config.t = model::kUnbounded;
  config.faulty = {true, true, false};
  const consensus::FPlusOneFactory factory(3);
  sched::SimWorld world(config, factory, {1, 2, 3, 4});

  sched::WalkOptions options;
  options.seed = seed;
  options.fault_bias = 0.8;
  const auto outcome = sched::random_walk(world, options);
  EXPECT_TRUE(outcome.ok()) << "seed=" << seed;
  EXPECT_EQ(outcome.steps, 12u);  // 4 processes × 3 objects, wait-free
}

TEST_P(WalkProperty, StagedWithinBudgetWalksAlwaysAgree) {
  const std::uint64_t seed = GetParam();
  sched::SimConfig config;
  config.num_objects = 2;
  config.kind = FaultKind::kOverriding;
  config.t = 2;
  const consensus::StagedFactory factory(2, 2);
  sched::SimWorld world(config, factory, {1, 2, 3});

  sched::WalkOptions options;
  options.seed = seed;
  options.fault_bias = 0.9;  // fire faults as early as possible
  const auto outcome = sched::random_walk(world, options);
  EXPECT_TRUE(outcome.ok()) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalkProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace ff
