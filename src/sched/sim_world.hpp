// SimWorld — deterministic simulated execution state.
//
// Holds the shared CAS registers, the per-process StepMachines, and the
// fault accounting for one execution prefix.  The scheduler/adversary is
// external: at each state, enabled() lists every legal Choice — which
// process steps next, and whether (and how) a fault fires on that step —
// and apply() advances the world by one such choice.  SimWorld is
// copyable (machines are cloned), which is what lets the explorer
// snapshot states for depth-first search, and encodable, which is what
// lets it memoize visited states.
//
// Fault branching follows Definition 1 exactly: a fault choice is only
// enabled when its outcome would differ from the correct outcome (an
// overriding fault on a CAS whose comparison succeeds anyway is not a
// fault, and is not offered as a branch — this also prunes the search).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "faults/trace.hpp"
#include "model/cas_semantics.hpp"
#include "model/fault_kind.hpp"
#include "model/tolerance.hpp"
#include "sched/program.hpp"
#include "sched/step.hpp"

namespace ff::sched {

/// Pseudo-process id for adversary data-corruption steps.
inline constexpr objects::ProcessId kAdversaryPid = 0xFFFFFFFFu;

/// Throws the std::out_of_range that SimWorld::apply and LaneSpace::apply
/// raise for a step addressing a word outside the layout: op.object is
/// not below `size`, the count of CAS objects (a CAS) or of registers.
[[noreturn]] void throw_outside_layout(const PendingOp& op,
                                       std::uint32_t size);

struct SimConfig {
  std::uint32_t num_objects = 1;
  /// Read/write registers available to the protocol (always correct —
  /// the lower bounds allow unboundedly many of them; Theorem 18).
  std::uint32_t num_registers = 0;
  /// Fault kind the designated faulty objects may exhibit.
  model::FaultKind kind = model::FaultKind::kOverriding;
  /// Designation mask (size num_objects); empty = all objects faulty.
  std::vector<bool> faulty;
  /// Max manifested faults per faulty object (kUnbounded = ∞).
  std::uint32_t t = model::kUnbounded;
  /// If non-empty, only steps by these processes may fault (the
  /// Theorem 18 reduced model uses {p_1-style single process}).
  std::set<objects::ProcessId> faulting_processes;
  /// Values an arbitrary fault / data corruption may write.  Empty
  /// defaults to {⊥} ∪ {inputs} at construction.
  std::vector<model::Value> arbitrary_candidates;
  /// Enables adversary corruption steps (Afek data-fault model): before
  /// any process step the adversary may overwrite a designated object
  /// with any candidate value, consuming budget.
  bool allow_corruption_steps = false;
  /// Max crashes per process (0 = crashes disabled).  A crash is a
  /// per-process nondeterministic branch at a pause point: the process
  /// loses its volatile locals and re-enters at its recovery label
  /// (StepMachine::crash()); shared objects and persistent locals
  /// survive.  Only machines with a recovery entry (can_crash()) are
  /// offered crash branches, so budget 0 — and every non-recoverable
  /// protocol — reproduces the crash-free state space exactly.
  std::uint32_t crash_budget = 0;
  /// Skip overriding-fault branches on objects the factory's static
  /// analysis proved immune (ProgramFacts::immune_objects).  Sound —
  /// the skipped branches can never manifest, so the census is
  /// bit-identical either way (DESIGN.md §3h); off switches to the
  /// brute-force enabling check for A/B measurement.
  bool use_immunity_pruning = true;
  /// Optional CAS-event recorder (borrowed).  Only meaningful for LINEAR
  /// drives of one world — random walks, adversaries, witness replays.
  /// The DFS explorer interleaves branches through copies that share
  /// this pointer; leave it null there.
  faults::TraceSink* sink = nullptr;

  [[nodiscard]] bool object_faulty(objects::ObjectId id) const {
    return faulty.empty() || (id < faulty.size() && faulty[id]);
  }
};

class SimWorld {
 public:
  SimWorld(SimConfig config, const MachineFactory& factory,
           std::vector<std::uint64_t> inputs);

  SimWorld(const SimWorld& other);
  SimWorld& operator=(const SimWorld& other);
  SimWorld(SimWorld&&) noexcept = default;
  SimWorld& operator=(SimWorld&&) noexcept = default;

  /// All legal choices at the current state.  Empty iff terminal.
  [[nodiscard]] std::vector<Choice> enabled() const;

  /// Advances by one choice (must be one returned by enabled()).  Throws
  /// std::out_of_range when the step accesses an object or register
  /// outside the layout (a corrupted value used as an index).
  void apply(const Choice& choice);

  /// Saved pre-step state for the explorers' expand-and-roll-back fast
  /// path.  One step changes at most: the shared vectors, one kill flag,
  /// the step counter, and ONE machine — so a child that turns out to be
  /// an already-visited duplicate costs one machine clone instead of a
  /// full world copy (which clones every machine and every vector).
  /// Reuse the same StepUndo across steps: its buffers keep their
  /// capacity and the per-step saves stop allocating.
  struct StepUndo {
    std::unique_ptr<StepMachine> machine;  ///< pre-step clone (process steps)
    objects::ProcessId pid = kAdversaryPid;
    std::vector<model::Value> objects;
    std::vector<model::Value> registers;
    std::vector<std::uint32_t> faults_used;
    std::vector<std::uint32_t> crashes_used;
    std::vector<bool> killed;
    std::uint64_t total_steps = 0;
  };

  /// apply(), but first saves everything the step may change into `undo`
  /// so undo_step() can roll this world back to the pre-step state.
  void apply_with_undo(const Choice& choice, StepUndo& undo);

  /// Rolls back the mutation of the matching apply_with_undo.  Call at
  /// most once per apply_with_undo, with no intervening apply.
  void undo_step(StepUndo& undo);

  /// Terminal: every process is done or killed (nonresponsive).
  [[nodiscard]] bool terminal() const;

  /// True when some process was killed by a nonresponsive fault.
  [[nodiscard]] bool any_killed() const;

  /// Decisions of the completed processes (nullopt for killed ones).
  [[nodiscard]] std::vector<std::optional<std::uint64_t>> decisions() const;

  /// Serializes the full semantic state for memoization.  Layout:
  /// shared prefix (encode_shared) followed by one block per process
  /// (encode_process, in pid order).  The block structure is what lets
  /// sched/reduce.hpp canonicalize symmetric states by sorting blocks
  /// and patch a parent encoding incrementally after a step.
  [[nodiscard]] std::vector<std::uint64_t> encode() const;

  /// Appends the process-independent state: object values, register
  /// values, and the semantically relevant fault-budget headroom.  Fixed
  /// length for a given configuration.
  void encode_shared(std::vector<std::uint64_t>& out) const;

  /// Appends process `pid`'s block: separator, kill flag, machine locals.
  /// Only a step by `pid` (or by nobody, for adversary steps) changes it.
  void encode_process(objects::ProcessId pid,
                      std::vector<std::uint64_t>& out) const;

  /// Words encode_shared() appends (fixed per configuration).
  [[nodiscard]] std::uint32_t shared_words() const noexcept {
    return config_.num_objects * 2 + config_.num_registers;
  }

  /// True when process ids are interchangeable: the factory declared its
  /// machines pid-oblivious and no fault rule singles out a process.
  /// This is the soundness precondition for symmetry reduction.
  [[nodiscard]] bool processes_symmetric() const noexcept {
    return symmetric_machines_ && config_.faulting_processes.empty();
  }

  [[nodiscard]] const std::vector<std::uint64_t>& inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] std::uint32_t processes() const noexcept {
    return static_cast<std::uint32_t>(machines_.size());
  }
  [[nodiscard]] model::Value object_value(objects::ObjectId id) const {
    return objects_.at(id);
  }
  [[nodiscard]] model::Value register_value(objects::ObjectId id) const {
    return registers_.at(id);
  }
  [[nodiscard]] std::uint32_t faults_used(objects::ObjectId id) const {
    return faults_used_.at(id);
  }
  [[nodiscard]] std::uint32_t crashes_used(objects::ProcessId pid) const {
    return crashes_used_.at(pid);
  }
  [[nodiscard]] std::uint64_t total_steps() const noexcept {
    return total_steps_;
  }
  [[nodiscard]] bool killed(objects::ProcessId pid) const {
    return killed_.at(pid);
  }
  [[nodiscard]] bool process_done(objects::ProcessId pid) const {
    return killed_.at(pid) || machines_.at(pid)->done();
  }
  [[nodiscard]] const StepMachine& machine(objects::ProcessId pid) const {
    return *machines_.at(pid);
  }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

  /// Next pending operation of a live process (kNone when done/killed).
  [[nodiscard]] PendingOp pending(objects::ProcessId pid) const;

  /// Static facts attached by the machine factory (nullptr when none).
  [[nodiscard]] const ProgramFacts* facts() const noexcept {
    return facts_.get();
  }

  /// A2 immunity-pruning counters, shared (monotone) across every copy
  /// of this world — the explorers copy worlds per branch, so per-copy
  /// counters would double count.  `checks` counts overriding-fault
  /// enabling conditions evaluated the brute-force way, `skips` the ones
  /// pruned by a proved-immune object.  Harvest as deltas around a
  /// search (ExploreResult::immunity_checks / immunity_skips).
  [[nodiscard]] std::uint64_t immunity_checks() const noexcept {
    return prune_->checks.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t immunity_skips() const noexcept {
    return prune_->skips.load(std::memory_order_relaxed);
  }

 private:
  /// Enumerates manifesting fault variants for the pending CAS of `pid`.
  void append_fault_choices(objects::ProcessId pid, const PendingOp& op,
                            std::vector<Choice>& out) const;
  [[nodiscard]] bool fault_allowed(objects::ProcessId pid,
                                   objects::ObjectId object) const;

  struct PruneCounters {
    // ff-lint: allow(R1): checker-internal prune tally, never protocol-visible
    std::atomic<std::uint64_t> checks{0};
    // ff-lint: allow(R1): checker-internal prune tally, never protocol-visible
    std::atomic<std::uint64_t> skips{0};
  };

  SimConfig config_;
  std::vector<std::uint64_t> inputs_;
  std::shared_ptr<const ProgramFacts> facts_;  ///< from the factory
  std::shared_ptr<PruneCounters> prune_;       ///< shared by all copies
  std::vector<std::unique_ptr<StepMachine>> machines_;
  std::vector<model::Value> objects_;
  std::vector<model::Value> registers_;
  std::vector<std::uint32_t> faults_used_;
  std::vector<std::uint32_t> crashes_used_;  ///< per process
  std::vector<bool> killed_;
  std::uint64_t total_steps_ = 0;
  bool symmetric_machines_ = false;
};

}  // namespace ff::sched
