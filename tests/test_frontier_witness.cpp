// The frontier explorer's witnesses (sched/frontier_explorer.hpp): a pin
// of its Reports at one thread, and a grid over the registry checking
// that every terminal-violation witness strictly replays to its kind and
// is as short as the shortest violating execution.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "model/fault_kind.hpp"
#include "proto/registry.hpp"
#include "sched/explorer.hpp"
#include "sched/fuzzer.hpp"
#include "verify/run.hpp"

namespace ff::sched {
namespace {

using model::FaultKind;

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

verify::JobSpec frontier_job(std::string protocol, FaultKind kind,
                             std::uint32_t n) {
  verify::JobSpec spec;
  spec.protocol = std::move(protocol);
  spec.kind = kind;
  spec.t = 1;
  spec.processes = n;
  spec.engine = verify::Engine::kFrontier;
  spec.threads = 1;
  return spec;
}

// ---------------------------------------------------------------------------
// FrontierPin: frontier Reports at one thread, hashed
// (FNV-1a 64) over Report::to_json() with the wall time and the
// capacity census zeroed — the census, the frontier counters, and each
// witness with its detail string.  A deliberate change to any of them
// updates these constants AND bumps verify::Cache::kFormatVersion.
// ---------------------------------------------------------------------------

struct PinnedFrontierJob {
  std::string name;
  verify::JobSpec spec;
  std::uint64_t hash;
};

std::vector<PinnedFrontierJob> pinned_frontier_jobs() {
  std::vector<PinnedFrontierJob> jobs;
  const auto add = [&jobs](std::string name, verify::JobSpec spec,
                           std::uint64_t hash_sym, std::uint64_t hash_asym) {
    spec.symmetry_reduction = true;
    jobs.push_back({name + " sym", spec, hash_sym});
    spec.symmetry_reduction = false;
    jobs.push_back({name + " no-sym", spec, hash_asym});
  };
  add("staged overriding n=3",
      frontier_job("staged", FaultKind::kOverriding, 3),
      0x15982bdf6287db9fULL, 0xee044c00194b0df6ULL);
  add("single-cas arbitrary n=3",
      frontier_job("single-cas", FaultKind::kArbitrary, 3),
      0xef536f5e9154b2b4ULL, 0xd0dc261db287c506ULL);
  verify::JobSpec recoverable_cas =
      frontier_job("recoverable-cas", FaultKind::kOverriding, 3);
  recoverable_cas.crash_budget = 1;
  add("recoverable-cas crashes=1 n=3", recoverable_cas,
      0x59df3119d3e7543fULL, 0x953d199e37633ff9ULL);
  verify::JobSpec tas =
      frontier_job("tas", FaultKind::kNonresponsive, 2);
  tas.killed_is_violation = true;
  // tas machines read their pid, so symmetry never applies to them.
  add("tas nonresponsive killed_is_violation n=2", tas,
      0x74495252b0216880ULL, 0x74495252b0216880ULL);
  // A complete census: 2,532 states, every terminal state agreeing.
  verify::JobSpec census =
      frontier_job("recoverable-staged", FaultKind::kOverriding, 2);
  census.crash_budget = 1;
  census.stop_at_first_violation = false;
  jobs.push_back({"recoverable-staged crashes=1 n=2 complete", census,
                  0x9af9cdfc42bff2c3ULL});
  return jobs;
}

TEST(FrontierPin, ReportsAsRecorded) {
  for (const PinnedFrontierJob& pin : pinned_frontier_jobs()) {
    verify::Report report = verify::execute(verify::instantiate(pin.spec));
    // Each violation job reports a terminal violation; the census job
    // completes without one.
    EXPECT_EQ(report.violation.has_value(), pin.spec.stop_at_first_violation)
        << pin.name;
    EXPECT_EQ(report.complete, !pin.spec.stop_at_first_violation) << pin.name;
    report.engine_micros = 0;
    report.peak_bytes = 0;
    const std::uint64_t got = fnv1a64(report.to_json());
    EXPECT_EQ(got, pin.hash) << pin.name << ": got 0x" << std::hex << got;
  }
}

// ---------------------------------------------------------------------------
// Witness minimality grid: every registry protocol × fault kind at n = 2
// and 3 where the DFS reports a terminal violation and no engine throws.
// The frontier's witness must strictly replay to the kind it reports and
// be exactly as long as find_shortest_violation's, at 1 and 4 threads,
// with symmetry on and off.
// ---------------------------------------------------------------------------

void expect_minimal_witnesses(std::uint32_t threads) {
  std::size_t jobs = 0;
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    for (const FaultKind kind :
         {FaultKind::kOverriding, FaultKind::kSilent, FaultKind::kInvisible,
          FaultKind::kArbitrary, FaultKind::kNonresponsive,
          FaultKind::kDataCorruption}) {
      for (const std::uint32_t n : {2u, 3u}) {
        verify::JobSpec spec = frontier_job(info.name, kind, n);
        spec.killed_is_violation = kind == FaultKind::kNonresponsive;
        for (const auto& param : info.params) {
          if (param.name == "n") spec.params["n"] = n;  // one register each
        }
        const std::string job = info.name + "/" +
                                std::string(model::to_string(kind)) + "/n" +
                                std::to_string(n);
        const verify::Instance instance = verify::instantiate(spec);
        const SimWorld world = instance.world();
        ExploreOptions opts;
        opts.killed_is_violation = spec.killed_is_violation;
        std::optional<Violation> dfs;
        ShortestViolationResult shortest;
        try {
          dfs = explore(world, opts).violation;
          if (!dfs || dfs->kind == ViolationKind::kNontermination) continue;
          shortest = find_shortest_violation(world, opts);
        } catch (const std::out_of_range&) {
          continue;  // an access outside the layout: no verdict to compare
        }
        ASSERT_TRUE(shortest.violation.has_value()) << job;
        ++jobs;
        for (const bool sym : {true, false}) {
          verify::JobSpec run = spec;
          run.threads = threads;
          run.symmetry_reduction = sym;
          const std::string label = job + (sym ? " sym" : "");
          const verify::Report report =
              verify::execute(verify::instantiate(run));
          ASSERT_TRUE(report.violation.has_value()) << label;
          const Violation& v = *report.violation;
          EXPECT_NE(v.kind, ViolationKind::kNontermination) << label;
          EXPECT_EQ(
              classify_schedule(world, v.schedule, spec.killed_is_violation),
              v.kind)
              << label;
          EXPECT_EQ(v.schedule.size(), shortest.violation->schedule.size())
              << label;
        }
      }
    }
  }
  EXPECT_GE(jobs, 40u);
}

TEST(FrontierWitness, MinimalAtOneThread) { expect_minimal_witnesses(1); }

TEST(FrontierWitness, MinimalAtFourThreads) { expect_minimal_witnesses(4); }

}  // namespace
}  // namespace ff::sched
