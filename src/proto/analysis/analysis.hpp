// ffcheck — abstract interpretation over the protocol IR.
//
// PR 3's ff-lint analyzes C++ source *text*; this module analyzes the
// thing the whole verification stack now derives from: proto::Program.
// It builds a CFG from the structured op list, runs small-constant-set
// abstract interpretation to a fixpoint, and discharges five analyses:
//
//   A1  static footprints — a per-pc may-touch interval over the shared
//       object/register namespaces (exact when the index is a single
//       constant), reported as a certificate;
//   A2  overriding-immunity — a per-object proof that no reachable CAS
//       can ever satisfy the overriding-fault manifest condition
//       (before ≠ expected ∧ before ≠ desired), so the fault branch may
//       be skipped without changing the census (the paper's uniform-
//       desired observation, machine-checked; DESIGN.md §3h);
//   A3  budget-boundedness — an explicit per-loop certificate (counted
//       bound, or classified retry loop) replacing blind trust in
//       finalize()'s cycle-contains-shared-op check;
//   A4  recovery-soundness — a forward must-defined proof that no
//       volatile local is read before re-definition on any path from
//       the recovery entry, with a witness path on failure;
//   A5  dead code / encode-coverage — unreachable ops are errors, and
//       the recomputed backward liveness must be covered by the
//       encode() layout (layout drift corrupts memoization).
//
// A1/A3/A4/A5 run over a delivery-agnostic fixpoint (every shared-op
// delivery is ⊤), so their facts hold under EVERY fault kind.  A2 runs
// a second, overriding-closed fixpoint whose conclusions are only valid
// — and only consulted — under model::FaultKind::kOverriding.
//
// analyze() never throws on a well-formed Program (including ones
// finalized with Validate::kSyntaxOnly); violations are reported, not
// thrown, so tools can print certificates and exit nonzero.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "proto/ir.hpp"
#include "sched/facts.hpp"
#include "util/json.hpp"

namespace ff::proto::analysis {

/// Per-analysis outcome.  Only kViolated fails an obligation (nonzero
/// ffcheck exit, ffgen refusal); kFlagged marks facts the analyzer could
/// not prove but that no obligation requires (e.g. an uncounted retry
/// loop, which the fault budget bounds dynamically).
enum class Verdict : std::uint8_t { kProved, kFlagged, kViolated };

[[nodiscard]] const char* verdict_name(Verdict v) noexcept;

/// A2 certificate for one shared object.
struct ObjectImmunity {
  std::uint32_t object = 0;
  bool immune = false;
  /// The overriding-closed content set V(o) (possible object values
  /// under kOverriding faults + crashes), or ⊤ when it overflowed.
  bool values_top = false;
  std::vector<Word> values;
  /// Why the object is (or is not) immune, human-readable.
  std::string reason;
};

/// A3 certificate for one control-flow loop (one nontrivial SCC).
struct LoopCertificate {
  enum class Kind : std::uint8_t {
    /// Proved: every cycle passes through a strictly-increasing counter
    /// whose abstract value set is finite — at most `bound` iterations.
    kCounted,
    /// Classified only: the loop contains a shared-memory operation, so
    /// iterations are bounded by the fault/crash budget and scheduling
    /// (the paper's retry loops), not by a static count.  Flagged.
    kCasRetry,
    /// No shared op anywhere in the cycle — the interpreter could spin
    /// without pausing.  Violated (finalize(kFull) rejects these; only
    /// Validate::kSyntaxOnly fixtures can reach the analyzer with one).
    kPausedCycle,
  };
  Kind kind = Kind::kCasRetry;
  std::vector<std::uint32_t> pcs;  ///< the SCC's ops, ascending
  std::string local;               ///< kCounted: the counter local
  std::uint64_t bound = 0;         ///< kCounted: iteration bound
};

/// A4 violation witness: a crash-free path from the recovery entry to a
/// read of `local` with no intervening re-definition.
struct RecoveryWitness {
  std::string local;
  std::uint32_t read_pc = 0;
  std::vector<std::uint32_t> path;  ///< recovery_pc .. read_pc
};

/// A1 static may-touch footprint of one pause site (program counter).
struct StaticFootprint {
  enum class Space : std::uint8_t {
    kNone,      ///< not a shared CAS/register op (local op, halt, queue)
    kObject,    ///< CAS object namespace
    kRegister,  ///< read/write register namespace
  };
  Space space = Space::kNone;
  /// True when the abstract index is a single constant: [lo, lo+1) and
  /// the static footprint equals the dynamic one at every reachable
  /// state.  Non-exact entries only bound the dynamic location.
  bool exact = false;
  /// False only for register reads; CAS steps always count as writes.
  bool writes = true;
  /// May-touch interval [lo, hi) over the space's index namespace.
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
};

/// A5 violation: `local` is live at pause point `pc` but missing from
/// the encode() layout.
struct CoverageViolation {
  std::uint32_t pc = 0;
  std::string op;  ///< op kind name ("cas", "reg_read", ...)
  std::string local;
};

struct AnalysisReport {
  std::string program;
  bool simulable = false;  ///< !uses_queue(): the CAS simulator runs it
  std::uint32_t num_ops = 0;
  std::uint32_t num_objects = 0;
  bool has_recovery = false;

  // A1 — always computable (fact-producing; verdict stays kProved).
  Verdict a1 = Verdict::kProved;
  std::vector<StaticFootprint> footprints;  ///< indexed by pc
  std::uint32_t shared_sites = 0;
  std::uint32_t exact_sites = 0;

  // A2 — fact-producing; the immunity result itself is the certificate.
  Verdict a2 = Verdict::kProved;
  std::uint64_t immune_objects = 0;  ///< bit o: proved immune
  std::vector<ObjectImmunity> objects;

  // A3 — kViolated on a pause-free cycle, kFlagged on uncounted loops.
  Verdict a3 = Verdict::kProved;
  std::vector<LoopCertificate> loops;

  // A4 — kViolated when a volatile local may be read unrecovered.
  Verdict a4 = Verdict::kProved;
  std::vector<RecoveryWitness> recovery_witnesses;

  // A5 — kViolated on unreachable ops or an uncovered live local.
  Verdict a5 = Verdict::kProved;
  std::vector<std::uint32_t> unreachable_pcs;
  std::vector<CoverageViolation> coverage_violations;
  /// Layout entries never live at any pause — harmless (they only waste
  /// encoding words), reported informationally.
  std::vector<std::string> unused_layout_locals;

  /// True when every obligation holds (no analysis is kViolated).
  [[nodiscard]] bool ok() const noexcept {
    return a1 != Verdict::kViolated && a2 != Verdict::kViolated &&
           a3 != Verdict::kViolated && a4 != Verdict::kViolated &&
           a5 != Verdict::kViolated;
  }
};

/// Runs all five analyses over a finalized program.
[[nodiscard]] AnalysisReport analyze(const Program& program);

/// Distills a report into the scheduler-facing facts (the A2 immunity
/// mask; sched/facts.hpp).
[[nodiscard]] std::shared_ptr<const sched::ProgramFacts> make_facts(
    const AnalysisReport& report);

/// analyze() + make_facts() in one call (what the factories cache).
[[nodiscard]] std::shared_ptr<const sched::ProgramFacts> program_facts(
    const Program& program);

/// Multi-line human report (one block per program, ffcheck's default).
[[nodiscard]] std::string render_human(const AnalysisReport& report);

/// Writes the report as one JSON object into `w` (callers wrap reports
/// in their own array/envelope).
void render_json(const AnalysisReport& report, util::JsonWriter& w);

}  // namespace ff::proto::analysis
