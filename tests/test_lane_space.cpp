// LaneSpace (sched/lane_space.hpp) against SimWorld, in lockstep.
//
// Both exhaustive engines step compact states through LaneSpace instead
// of SimWorld, so every claim "same semantics" rests on this suite:
//
//   * LaneSpaceLockstep walks seeded random schedules through SimWorld
//     over the registry grid (every simulable protocol × the six fault
//     kinds × crash budget 0/1 × symmetry on/off) and, at every state,
//     requires the same enabled() list, the same encoding and fingerprint,
//     the same terminal verdict, the same immunity tallies, and — for
//     every enabled choice — the same successor (or the same throw); a
//     test-only machine adds the crash-after of register writes, which
//     no registry protocol reaches.
//   * DfsPin pins the sequential DFS's Reports (every field but the wall
//     time and the capacity census) on jobs that exercise its violation
//     details, symmetric cycle closure, adversary steps, crashes, fault
//     variants, stalls and both benchmark proofs, hashed as recorded
//     before the DFS moved onto lanes.
//   * SmallJobs checks that a job of a few hundred states holds a few
//     hundred kilobytes on either engine: every fingerprint table starts
//     at FlatFpMap's minimum and doubles as the census needs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz_jobs.hpp"
#include "proto/registry.hpp"
#include "sched/explore_common.hpp"
#include "sched/lane_space.hpp"
#include "sched/reduce.hpp"
#include "util/rng.hpp"
#include "verify/run.hpp"

namespace ff::sched {
namespace {

using model::FaultKind;

struct LockstepCell {
  std::string label;
  verify::Instance instance;
  bool sym = false;
};

std::vector<LockstepCell> lockstep_grid() {
  std::vector<LockstepCell> grid;
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    for (const FaultKind kind :
         {FaultKind::kOverriding, FaultKind::kSilent, FaultKind::kInvisible,
          FaultKind::kNonresponsive, FaultKind::kArbitrary,
          FaultKind::kDataCorruption}) {
      for (const std::uint32_t crash_budget : {0u, 1u}) {
        for (const bool sym : {false, true}) {
          verify::JobSpec spec;
          spec.protocol = info.name;
          spec.kind = kind;
          spec.t = 1;
          spec.crash_budget = crash_budget;
          spec.killed_is_violation = kind == FaultKind::kNonresponsive;
          spec.symmetry_reduction = sym;
          // Three processes where the protocol is sized for them.
          spec.processes = 3;
          try {
            spec.validate();
          } catch (const std::invalid_argument&) {
            spec.processes = 2;
          }
          LockstepCell cell;
          cell.label = info.name + "/" + std::string(model::to_string(kind)) +
                       "/crash" + std::to_string(crash_budget) +
                       (sym ? "/sym" : "");
          cell.instance = verify::instantiate(spec);
          cell.sym = sym && cell.instance.world().processes_symmetric();
          grid.push_back(std::move(cell));
        }
      }
    }
  }
  return grid;
}

/// Checks one state of the walk; returns the choices whose successors
/// SimWorld reaches without throwing.
std::vector<Choice> check_state(const LaneSpace& space, LaneCache& cache,
                                const SimWorld& world,
                                const std::vector<std::uint64_t>& state,
                                bool sym, bool killed_is_violation,
                                const std::string& label) {
  const std::uint64_t checks0 = world.immunity_checks();
  const std::uint64_t skips0 = world.immunity_skips();
  const std::uint64_t cache_checks0 = cache.immunity_checks;
  const std::uint64_t cache_skips0 = cache.immunity_skips;
  const std::vector<Choice> expected = world.enabled();
  std::vector<Choice> got;
  space.enabled(state.data(), got, cache);
  EXPECT_EQ(got, expected) << label;
  EXPECT_EQ(cache.immunity_checks - cache_checks0,
            world.immunity_checks() - checks0)
      << label;
  EXPECT_EQ(cache.immunity_skips - cache_skips0,
            world.immunity_skips() - skips0)
      << label;

  EncodedState enc;
  StateEncoder().encode(world, enc);
  EncodedState lane_enc;
  space.encode(state.data(), lane_enc);
  EXPECT_EQ(lane_enc.words, enc.words) << label;
  EXPECT_EQ(lane_enc.block_off, enc.block_off) << label;
  EXPECT_EQ(lane_enc.shared_len, enc.shared_len) << label;
  EXPECT_EQ(space.fingerprint(state.data(), cache), fingerprint_state(enc, sym))
      << label;

  EXPECT_EQ(space.terminal(state.data()), world.terminal()) << label;
  if (world.terminal()) {
    ExploreOptions options;
    options.killed_is_violation = killed_is_violation;
    std::string detail;
    const auto kind = detail::check_terminal(world, options, detail);
    const TerminalVerdict verdict = space.verdict(state.data());
    EXPECT_EQ(verdict.kind, kind) << label;
    if (!kind) {
      std::optional<std::uint64_t> first_decided;
      for (const auto& d : world.decisions()) {
        if (d && !first_decided) first_decided = d;
      }
      EXPECT_EQ(verdict.agreed, first_decided) << label;
    }
  }

  std::vector<Choice> steppable;
  std::vector<std::uint64_t> child(space.stride());
  std::vector<std::uint64_t> mirror(space.stride());
  for (const Choice& c : expected) {
    SimWorld next = world;
    try {
      next.apply(c);
    } catch (const std::out_of_range&) {
      EXPECT_THROW(space.apply(state.data(), c, child.data(), cache),
                   std::out_of_range)
          << label << " " << c.to_string();
      continue;
    }
    space.apply(state.data(), c, child.data(), cache);
    space.state_of(next, mirror.data());
    EXPECT_EQ(child, mirror) << label << " " << c.to_string();
    steppable.push_back(c);
  }
  return steppable;
}

/// Walks seeded schedules from `root` through SimWorld and LaneSpace in
/// lockstep; returns the states checked.
std::uint64_t walk_lockstep(const SimWorld& root, bool sym,
                            bool killed_is_violation,
                            const std::string& label, std::uint64_t seed) {
  constexpr int kWalks = 12;
  constexpr int kMaxSteps = 48;
  LaneArena arena;
  LaneCache cache;
  const LaneSpace space(root, arena, sym, killed_is_violation);
  util::Xoshiro256 rng(seed);
  std::uint64_t states = 0;
  for (int walk = 0; walk < kWalks; ++walk) {
    SimWorld world = root;
    std::vector<std::uint64_t> state(space.stride());
    space.state_of(world, state.data());
    for (int step = 0; step < kMaxSteps; ++step) {
      ++states;
      const std::vector<Choice> steppable = check_state(
          space, cache, world, state, sym, killed_is_violation, label);
      if (::testing::Test::HasFailure() || steppable.empty()) break;
      const Choice c = steppable[rng.below(steppable.size())];
      std::vector<std::uint64_t> next(space.stride());
      space.apply(state.data(), c, next.data(), cache);
      world.apply(c);
      state.swap(next);
    }
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_FALSE(arena.overflowed()) << label;
  return states;
}

TEST(LaneSpaceLockstep, MirrorsSimWorldOnRegistryWalks) {
  std::uint64_t states = 0;
  for (const LockstepCell& cell : lockstep_grid()) {
    states += walk_lockstep(cell.instance.world(), cell.sym,
                            cell.instance.spec.killed_is_violation,
                            cell.label, 0x1a2e5 + states);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(states, 5000u);
}

/// Writes its input to register 0, reads it back and decides what it
/// read; a crash re-enters at the write.  No registry protocol writes a
/// register and recovers, so this is what reaches the register half of
/// crash-after (offered only when the write changes the register).
class CrashingWriter : public StepMachine {
 public:
  explicit CrashingWriter(std::uint64_t input) : input_(input) {}
  [[nodiscard]] PendingOp next_op() const override {
    if (pc_ == 0) return PendingOp::reg_write(0, model::Value::of(input_));
    return pc_ == 1 ? PendingOp::reg_read(0) : PendingOp::none();
  }
  void deliver(model::Value returned) override {
    if (pc_++ == 1) read_ = returned.raw();
  }
  [[nodiscard]] bool done() const override { return pc_ == 2; }
  [[nodiscard]] std::uint64_t decision() const override { return read_; }
  void encode(std::vector<std::uint64_t>& out) const override {
    out.push_back(pc_);
    out.push_back(input_);
    out.push_back(read_);
  }
  [[nodiscard]] std::unique_ptr<StepMachine> clone() const override {
    return std::make_unique<CrashingWriter>(*this);
  }
  [[nodiscard]] bool can_crash() const override { return !done(); }
  void crash() override { pc_ = 0; }

 private:
  std::uint64_t input_;
  std::uint64_t pc_ = 0;
  std::uint64_t read_ = 0;
};

class CrashingWriterFactory : public MachineFactory {
 public:
  [[nodiscard]] std::unique_ptr<StepMachine> make(
      objects::ProcessId /*pid*/, std::uint64_t input) const override {
    return std::make_unique<CrashingWriter>(input);
  }
  [[nodiscard]] std::uint32_t objects_used() const override { return 1; }
  [[nodiscard]] std::uint32_t registers_used() const override { return 1; }
  [[nodiscard]] bool pid_oblivious() const override { return true; }
  [[nodiscard]] std::string name() const override { return "crashing-writer"; }
};

TEST(LaneSpaceLockstep, MirrorsSimWorldOnCrashingRegisterWrites) {
  const CrashingWriterFactory factory;
  for (const std::uint32_t crash_budget : {1u, 2u}) {
    for (const bool sym : {false, true}) {
      SimConfig config;
      config.num_registers = 1;
      config.crash_budget = crash_budget;
      const SimWorld root(config, factory, {1, 2, 2});
      const std::string label = "crashing-writer crashes=" +
                                std::to_string(crash_budget) +
                                (sym ? " sym" : "");
      EXPECT_GT(walk_lockstep(root, sym, false, label, crash_budget), 100u)
          << label;
    }
  }
}

// A worker cache and the shared arena memo answer alike: a second cache
// over the same arena steps no machine and interns no lane.
TEST(LaneSpaceLockstep, SharedArenaAnswersFromTheMemo) {
  verify::JobSpec spec;
  spec.protocol = "staged";
  spec.processes = 3;
  const verify::Instance instance = verify::instantiate(spec);
  const SimWorld root = instance.world();
  LaneArena arena;
  const LaneSpace space(root, arena, true, false);
  LaneCache first;
  LaneCache second;
  std::vector<std::uint64_t> state(space.stride());
  std::vector<std::uint64_t> a(space.stride());
  std::vector<std::uint64_t> b(space.stride());
  space.state_of(root, state.data());
  std::vector<Choice> choices;
  space.enabled(state.data(), choices, first);
  ASSERT_FALSE(choices.empty());
  for (const Choice& c : choices) space.apply(state.data(), c, a.data(), first);
  const LaneArena::Stats before = arena.stats();
  for (const Choice& c : choices) {
    space.apply(state.data(), c, a.data(), first);
    space.apply(state.data(), c, b.data(), second);
    EXPECT_EQ(a, b) << c.to_string();
  }
  const LaneArena::Stats after = arena.stats();
  EXPECT_EQ(after.lanes, before.lanes);
  EXPECT_EQ(after.stepped, before.stepped);
  EXPECT_GT(first.memo_hits, 0u);
  EXPECT_GT(after.memo_hits, before.memo_hits);  // the second cache's looks
}

// ---------------------------------------------------------------------------
// SmallJobs: small jobs pay for small tables.
// ---------------------------------------------------------------------------

/// Doublings FlatFpMap's rule predicts from its minimum of 16 slots for
/// a census of `states`: one grow() per doubling while the table would
/// pass 70% load.  The DFS probes with insert_or_get, which checks the
/// load before it looks, so a probe after the last insert counts as one
/// more entry.
std::uint64_t expected_grows(std::uint64_t states) {
  std::uint64_t cap = 16;
  std::uint64_t grows = 0;
  while ((states + 1) * 10 > cap * 7) {
    cap <<= 1;
    ++grows;
  }
  return grows;
}

TEST(SmallJobs, PayForSmallTables) {
  for (const std::string protocol : {"single-cas", "staged"}) {
    for (const verify::Engine engine :
         {verify::Engine::kDfs, verify::Engine::kFrontier}) {
      verify::JobSpec spec;
      spec.protocol = protocol;
      spec.processes = 2;
      spec.engine = engine;
      spec.threads = 1;
      const std::string name =
          protocol + " n=2 " + std::string(verify::to_string(engine));
      const verify::Report report =
          verify::execute(verify::instantiate(spec));
      ASSERT_TRUE(report.complete) << name;
      EXPECT_LT(report.peak_bytes, 512u * 1024) << name;
      if (engine == verify::Engine::kDfs) {
        EXPECT_EQ(report.table_grows, expected_grows(report.states_visited))
            << name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DfsPin: the sequential DFS's Reports, as recorded before it moved onto
// lanes; only table_grows was re-recorded since, when the fingerprint
// table began to start at FlatFpMap's minimum.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct PinnedDfsJob {
  std::string name;
  verify::JobSpec spec;
  std::uint64_t hash;
};

std::vector<PinnedDfsJob> pinned_dfs_jobs() {
  const auto job = [](std::string protocol, FaultKind kind, std::uint32_t t,
                      std::uint32_t n) {
    verify::JobSpec spec;
    spec.protocol = std::move(protocol);
    spec.kind = kind;
    spec.t = t;
    spec.processes = n;
    spec.engine = verify::Engine::kDfs;
    return spec;
  };
  verify::JobSpec retry_all =
      job("retry-silent", FaultKind::kSilent, model::kUnbounded, 3);
  retry_all.stop_at_first_violation = false;
  verify::JobSpec recoverable_cas =
      job("recoverable-cas", FaultKind::kOverriding, 1, 3);
  recoverable_cas.crash_budget = 1;
  verify::JobSpec recoverable_staged =
      job("recoverable-staged", FaultKind::kOverriding, 1, 2);
  recoverable_staged.crash_budget = 2;
  verify::JobSpec tas = job("tas", FaultKind::kNonresponsive, 1, 2);
  tas.killed_is_violation = true;
  verify::JobSpec proof_sym = testutil::proof_sym_job();
  proof_sym.engine = verify::Engine::kDfs;
  verify::JobSpec proof_crash = testutil::proof_crash_job();
  proof_crash.engine = verify::Engine::kDfs;
  return {
      {"staged overriding n=3", job("staged", FaultKind::kOverriding, 1, 3),
       0x5938433cca620045ULL},
      {"retry-silent silent t=inf n=2 symmetric",
       job("retry-silent", FaultKind::kSilent, model::kUnbounded, 2),
       0x0eb649b56611ff9aULL},
      {"retry-silent silent t=inf n=3 all violations", retry_all,
       0x4ac6d8217251f2bcULL},
      {"staged data t=inf n=2",
       job("staged", FaultKind::kDataCorruption, model::kUnbounded, 2),
       0xdccb5b07aacdae52ULL},
      {"recoverable-cas crashes=1 n=3", recoverable_cas,
       0xa73290dfb1b49f0aULL},
      {"recoverable-staged crashes=2 n=2", recoverable_staged,
       0xf8e17619e6bf3228ULL},
      {"single-cas arbitrary n=3", job("single-cas", FaultKind::kArbitrary, 1, 3),
       0x16da0bddebc8945bULL},
      {"tas nonresponsive killed_is_violation n=2", tas,
       0xb8959163956fcdb5ULL},
      {"proof-sym", proof_sym, 0x7ff318a8dfdcfbf9ULL},
      {"proof-crash", proof_crash, 0xdd10420fd27be6c4ULL},
  };
}

// Every Report field but the wall time and the capacity census is pinned:
// the DFS's traversal order, census, witnesses and detail strings.
TEST(DfsPin, ReportsAsRecorded) {
  for (const PinnedDfsJob& pin : pinned_dfs_jobs()) {
    verify::Report report = verify::execute(verify::instantiate(pin.spec));
    report.engine_micros = 0;
    report.peak_bytes = 0;
    const std::uint64_t got = fnv1a64(report.to_json());
    EXPECT_EQ(got, pin.hash) << pin.name << ": got 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace ff::sched
