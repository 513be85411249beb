// Owner-computes frontier explorer — engine internals.
//
// Data flow per BFS wave (see frontier_explorer.hpp for the contract):
//
//   expand:  each worker walks the wave items of the shards it OWNS and
//            enumerates every enabled Choice by mirroring
//            SimWorld::enabled()/apply() over the item's compact words
//            (shared raws + hash-consed machine lanes) — no SimWorld
//            copies on the hot path.  Successor items are routed: own
//            shard → local candidate buffer, foreign shard → SPSC ring.
//   quiesce: expansion counter + ring drain (a producer's pushes happen
//            before its counter decrement, so one empty sweep after the
//            counter hits zero is conclusive).
//   dedup:   each owner sorts its candidates by fingerprint, merge-joins
//            them against its spilled runs, then probes its private
//            FlatFpMap — single writer, no locks.  Novel states join the
//            next wave; novel terminals are censused on the spot.
//   account: worker 0 sums the next wave, takes the peak-memory census
//            and decides stop/spill for everyone (spin barriers carry
//            the happens-before edges).
//
// Machine stepping is memoized per (lane, returned-word) transition.
// The memo answers over 99% of steps on the reference proofs, so the
// few misses of a block are stepped one at a time on a clone() of the
// lane's StepMachine (clone()+deliver(), clone()+crash() for crash
// branches) and the successors interned.  The arena therefore needs
// only the MachineFactory/StepMachine interface.
#include "sched/frontier_explorer.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/budget.hpp"
#include "sched/cycle_scan.hpp"
#include "sched/explore_common.hpp"
#include "sched/reduce.hpp"
#include "util/handoff.hpp"
#include "util/rng.hpp"
#include "util/spin_barrier.hpp"

namespace ff::sched {

namespace {

using detail::Fingerprint;
using detail::FlatFpMap;
using detail::FpFold;

constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
constexpr std::uint32_t kTerminalFlag = 0x80000000u;
constexpr std::uint64_t kIdSpace = 0x7FFFFFFEull;
constexpr std::uint8_t kNoSlot = CycleEdge::kNoSlot;
constexpr std::uint32_t kNoLane = 0xFFFFFFFFu;

/// Choice encoding shared by items, records and edges.
constexpr std::uint8_t kChoiceFault = CycleEdge::kFault;
constexpr std::uint8_t kChoiceCrash = CycleEdge::kCrash;
/// Record-only: the state behind this record is terminal.
constexpr std::uint8_t kRecTerminal = 4;

/// Items per expansion block between pend flushes / ring drains.
constexpr std::size_t kExpandBlock = 64;
/// Records per SPSC ring (per producer/consumer pair).
constexpr std::size_t kRingRecords = 512;
/// Records per spill-run read buffer during merge-join / binary search.
constexpr std::size_t kRunBuf = 1024;

const std::uint64_t kBottomRaw = model::Value::bottom().raw();

[[nodiscard]] bool fp_less(const Fingerprint& x, const Fingerprint& y) {
  return x.a < y.a || (x.a == y.a && x.b < y.b);
}

// ---------------------------------------------------------------------------
// Wave items.
//
// One candidate/wave state is a flat block of `stride` words:
//   [0] fp.a          [1] fp.b
//   [2] parent_fp.a   [3] parent_fp.b
//   [4] pid | variant << 32                (discovering choice)
//   [5] parent_id | flags << 32 | slot << 40
//   [6] depth | own_id << 32               (own_id written on accept)
//   [7 .. 7+S)        shared raws, exactly SimWorld::encode_shared()
//   [7+S .. 7+S+n)    per-pid: lane | crashes << 32 | killed << 48
// ---------------------------------------------------------------------------

constexpr std::size_t kHeaderWords = 7;
constexpr std::size_t kItFpA = 0, kItFpB = 1, kItParA = 2, kItParB = 3;
constexpr std::size_t kItChoice = 4, kItParent = 5, kItDepth = 6;

[[nodiscard]] std::uint32_t item_lane(std::uint64_t w) {
  return static_cast<std::uint32_t>(w);
}
[[nodiscard]] std::uint32_t item_crashes(std::uint64_t w) {
  return static_cast<std::uint32_t>((w >> 32) & 0xFFFFu);
}
[[nodiscard]] bool item_killed(std::uint64_t w) {
  return ((w >> 48) & 1u) != 0;
}
[[nodiscard]] std::uint64_t pack_pid_word(std::uint32_t lane,
                                          std::uint32_t crashes, bool killed) {
  return std::uint64_t{lane} | (std::uint64_t{crashes & 0xFFFFu} << 32) |
         (std::uint64_t{killed ? 1u : 0u} << 48);
}

/// Census record: the in-memory back-pointer entry AND the on-disk spill
/// format (sorted by fp within a run).  Fixed 56-byte POD so runs can be
/// written/read as flat arrays and binary-searched by seek.
struct Record {
  Fingerprint fp;
  Fingerprint parent_fp;
  std::uint32_t seq = 0;        ///< per-shard sequence number
  std::uint32_t parent_id = 0;  ///< global id of the discovering parent
  std::uint32_t pid = 0;
  std::uint32_t variant = 0;
  std::uint8_t flags = 0;  ///< kChoiceFault | kChoiceCrash | kRecTerminal
  std::uint8_t slot = kNoSlot;
  std::uint8_t pad[6] = {};  ///< written to runs, so never left unset
};
static_assert(sizeof(Record) == 56 && std::is_trivially_copyable_v<Record>);

[[nodiscard]] Choice record_choice(std::uint32_t pid, std::uint32_t variant,
                                   std::uint8_t flags) {
  return Choice{pid, (flags & kChoiceFault) != 0, variant,
                (flags & kChoiceCrash) != 0};
}

// ---------------------------------------------------------------------------
// Lane arena: hash-consed machine states.
//
// A StepMachine's observable behaviour is a function of its encoded
// block (plus its pid when the program reads it) — the same layout-
// determinism the explorers' state memoization already relies on — so
// machine states are interned on (pid, encode words) and every stepping
// transition is memoized per (lane, returned word).  Lane payloads live
// in fixed-size chunks behind atomic chunk pointers: writers append
// under one mutex and publish the chunk with a release store; readers
// acquire-load the pointer and then read lane slots race-free, because a
// lane index only ever reaches another worker through a mutex, ring or
// barrier edge that orders the slot writes before the read.
// ---------------------------------------------------------------------------

constexpr std::size_t kLaneChunkBits = 12;
constexpr std::size_t kLaneChunk = std::size_t{1} << kLaneChunkBits;
constexpr std::size_t kMaxLaneChunks = std::size_t{1} << 14;

struct LaneMeta {
  PendingOp op;  ///< kNone when halted
  std::uint64_t decision = 0;
  objects::ProcessId pid = 0;
  bool done = false;
  bool can_crash = false;
};

struct DeliverMiss {
  std::uint32_t lane;
  std::uint64_t returned;
};

/// FlatFpMap slots entries at fp.a's low bits directly, which is only
/// sound for well-mixed values; lane ids are tiny sequential integers,
/// so memo keys run the pair through the SplitMix64 finalizer first.
/// Injective: equal b forces equal returned, and for fixed returned
/// mix64 is a bijection of (lane + 1) — distinct pairs cannot collide.
[[nodiscard]] Fingerprint memo_key(std::uint32_t lane,
                                   std::uint64_t returned) noexcept {
  return Fingerprint{util::mix64((std::uint64_t{lane} + 1) ^
                                 (returned * 0x9E3779B97F4A7C15ULL)),
                     returned};
}

class LaneArena {
 public:
  explicit LaneArena(const MachineFactory& factory) : factory_(&factory) {}

  LaneArena(const LaneArena&) = delete;
  LaneArena& operator=(const LaneArena&) = delete;

  ~LaneArena() {
    for (auto& c : meta_chunks_) delete[] c.load(std::memory_order_relaxed);
    for (auto& c : machine_chunks_) {
      delete[] c.load(std::memory_order_relaxed);
    }
  }

  [[nodiscard]] bool overflowed() const noexcept {
    return overflow_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const LaneMeta& meta(std::uint32_t lane) const {
    return meta_chunks_[lane >> kLaneChunkBits].load(
        std::memory_order_acquire)[lane & (kLaneChunk - 1)];
  }

  /// Appends the lane's encode() words, which is what makes item
  /// fingerprints equal to the sequential explorer's.
  void encode_lane(std::uint32_t lane, std::vector<std::uint64_t>& out) const {
    machine_of(lane)->encode(out);
  }

  /// Interns the initial machine state of (pid, input).
  [[nodiscard]] std::uint32_t root_lane(objects::ProcessId pid,
                                        std::uint64_t input) {
    std::lock_guard<std::mutex> g(mu_);
    return intern_machine(factory_->make(pid, input), pid);
  }

  /// Resolves the (lane, returned) misses of one expansion block: each
  /// pair the shared memo cannot answer is stepped on a clone() of the
  /// lane's machine and interned.  out[i] is the successor lane of
  /// misses[i].
  void resolve_delivers(const std::vector<DeliverMiss>& misses,
                        std::vector<std::uint32_t>& out) {
    out.resize(misses.size());
    std::lock_guard<std::mutex> g(mu_);
    std::uint64_t stepped = 0;
    for (std::size_t i = 0; i < misses.size(); ++i) {
      const Fingerprint key = memo_key(misses[i].lane, misses[i].returned);
      const std::uint32_t hit = deliver_memo_.find(key);
      if (hit != FlatFpMap::kNoValue) {
        ++memo_hits_;
        out[i] = hit;
        continue;
      }
      const LaneMeta& m = meta_locked(misses[i].lane);
      std::unique_ptr<StepMachine> next = machine_of(misses[i].lane)->clone();
      next->deliver(model::Value::of(misses[i].returned));
      out[i] = intern_machine(std::move(next), m.pid);
      deliver_memo_.insert_or_get(key, out[i]);
      ++stepped;
    }
    if (stepped != 0) {
      ++resolve_calls_;
      stepped_ += stepped;
    }
  }

  /// The lane a crash of `lane` leaves behind (volatile locals wiped,
  /// re-entered at the recovery label).  Crash outcomes are a function
  /// of the lane alone, so one memo entry covers every crash variant.
  [[nodiscard]] std::uint32_t resolve_crash(std::uint32_t lane) {
    std::lock_guard<std::mutex> g(mu_);
    const Fingerprint key = memo_key(lane, 0);
    const std::uint32_t hit = crash_memo_.find(key);
    if (hit != FlatFpMap::kNoValue) {
      ++memo_hits_;
      return hit;
    }
    const LaneMeta& m = meta_locked(lane);
    std::unique_ptr<StepMachine> next = machine_of(lane)->clone();
    next->crash();
    const std::uint32_t next_lane = intern_machine(std::move(next), m.pid);
    crash_memo_.insert_or_get(key, next_lane);
    return next_lane;
  }

  [[nodiscard]] std::uint64_t lanes() {
    std::lock_guard<std::mutex> g(mu_);
    return size_;
  }
  [[nodiscard]] std::uint64_t memo_hits() {
    std::lock_guard<std::mutex> g(mu_);
    return memo_hits_;
  }
  [[nodiscard]] std::uint64_t resolve_calls() {
    std::lock_guard<std::mutex> g(mu_);
    return resolve_calls_;
  }
  [[nodiscard]] std::uint64_t stepped() {
    std::lock_guard<std::mutex> g(mu_);
    return stepped_;
  }

  /// Capacity census of the arena: chunks, maps, and each interned
  /// machine's state as the encode words recorded at intern time.
  [[nodiscard]] std::uint64_t bytes() {
    std::lock_guard<std::mutex> g(mu_);
    std::uint64_t total =
        chunks_ * kLaneChunk * (sizeof(void*) + sizeof(LaneMeta));
    total += (intern_.capacity() + deliver_memo_.capacity() +
              crash_memo_.capacity()) *
             24;
    total += machine_words_ * sizeof(std::uint64_t);
    return total;
  }

 private:
  [[nodiscard]] StepMachine* machine_of(std::uint32_t lane) const {
    return machine_chunks_[lane >> kLaneChunkBits]
        .load(std::memory_order_acquire)[lane & (kLaneChunk - 1)]
        .get();
  }
  [[nodiscard]] const LaneMeta& meta_locked(std::uint32_t lane) const {
    return meta_chunks_[lane >> kLaneChunkBits].load(
        std::memory_order_relaxed)[lane & (kLaneChunk - 1)];
  }

  /// Reserves lane `size_` (allocating chunks as needed) or flags
  /// overflow.  Caller holds mu_.
  [[nodiscard]] bool reserve_lane() {
    const std::size_t chunk = size_ >> kLaneChunkBits;
    if (chunk >= kMaxLaneChunks) {
      overflow_.store(true, std::memory_order_relaxed);
      return false;
    }
    if ((size_ & (kLaneChunk - 1)) == 0 &&
        meta_chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
      meta_chunks_[chunk].store(new LaneMeta[kLaneChunk],
                                std::memory_order_release);
      machine_chunks_[chunk].store(new std::unique_ptr<StepMachine>[kLaneChunk],
                                   std::memory_order_release);
      ++chunks_;
    }
    return true;
  }

  [[nodiscard]] std::uint32_t intern_machine(
      std::unique_ptr<StepMachine> machine, objects::ProcessId pid) {
    FpFold f;
    f.fold(std::uint64_t{pid} + 1);
    enc_scratch_.clear();
    machine->encode(enc_scratch_);
    for (const std::uint64_t w : enc_scratch_) f.fold(w);
    const auto lane = static_cast<std::uint32_t>(size_);
    const std::uint32_t existing = intern_.insert_or_get(f.done(), lane);
    if (existing != FlatFpMap::kNoValue) return existing;
    if (!reserve_lane()) return 0;
    LaneMeta m;
    m.pid = pid;
    m.done = machine->done();
    m.decision = m.done ? machine->decision() : 0;
    m.op = m.done ? PendingOp::none() : machine->next_op();
    m.can_crash = machine->can_crash();
    meta_chunks_[lane >> kLaneChunkBits].load(
        std::memory_order_relaxed)[lane & (kLaneChunk - 1)] = m;
    machine_chunks_[lane >> kLaneChunkBits].load(
        std::memory_order_relaxed)[lane & (kLaneChunk - 1)] =
        std::move(machine);
    machine_words_ += enc_scratch_.size();
    ++size_;
    return lane;
  }

  const MachineFactory* factory_;

  std::mutex mu_;
  FlatFpMap intern_{1 << 12};
  FlatFpMap deliver_memo_{1 << 14};
  FlatFpMap crash_memo_{1 << 10};
  std::size_t size_ = 0;
  std::size_t chunks_ = 0;
  std::uint64_t machine_words_ = 0;  ///< encode words of interned lanes
  std::uint64_t memo_hits_ = 0;
  std::uint64_t resolve_calls_ = 0;  ///< resolve_delivers that stepped
  std::uint64_t stepped_ = 0;        ///< misses stepped by those calls
  std::vector<std::uint64_t> enc_scratch_;

  // ff-lint: allow(R1): arena capacity flag of the checker itself,
  std::atomic<bool> overflow_{false};
  // Published lane-chunk pointers (single writer under mu_, readers
  // ordered by ring/barrier edges) — checker machinery, never part of
  // any modeled protocol history.
  // ff-lint: allow(R1): published lane-chunk pointers, checker-internal
  std::vector<std::atomic<LaneMeta*>> meta_chunks_{kMaxLaneChunks};
  // ff-lint: allow(R1): see meta_chunks_
  std::vector<std::atomic<std::unique_ptr<StepMachine>*>> machine_chunks_{
      kMaxLaneChunks};
};

// ---------------------------------------------------------------------------
// Shards, per-worker state, shared context.
// ---------------------------------------------------------------------------

struct alignas(64) ShardState {
  FlatFpMap table{16};
  std::vector<Record> records;      ///< post-spill: since spilled_base
  std::vector<Fingerprint> fp_by_seq;  ///< never spilled (cycle scan)
  std::vector<std::uint64_t> wave;  ///< items to expand this wave
  /// Direct mode: censused next-wave items (flipped into wave at the
  /// boundary).  Spill mode: raw successor candidates awaiting dedup.
  std::vector<std::uint64_t> cand;
  std::vector<std::string> runs;    ///< sorted spill run files
  std::uint32_t next_seq = 0;
  std::uint32_t spilled_base = 0;
  std::uint64_t grows = 0;  ///< table grows accumulated across resets
};

struct Pend {
  const std::uint64_t* item;
  std::uint32_t miss_idx;
  std::uint32_t pid;
  std::uint32_t variant;
  std::uint8_t flags;
  std::uint8_t slot;
  std::uint32_t shared_off;  ///< into WorkerState::pend_shared
};

struct WorkerState {
  // Census accumulators, merged after the join.
  std::uint64_t terminal_states = 0;
  std::uint64_t violations_found = 0;
  std::uint64_t max_depth = 0;
  std::map<ViolationKind, std::uint64_t> by_kind;
  std::set<std::uint64_t> agreed_values;
  std::vector<CycleEdge> edges;  ///< for the post-join cycle scan
  std::uint64_t forwarded = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t immunity_checks = 0;
  std::uint64_t immunity_skips = 0;
  std::uint64_t spill_runs = 0;
  std::uint64_t spilled_records = 0;
  std::uint64_t spill_bytes = 0;

  // Worker-private transition caches in front of the arena's memos.
  FlatFpMap deliver_cache{1 << 12};
  FlatFpMap crash_cache{1 << 10};

  // Expansion scratch.
  StateEncoder encoder;
  EncodedState parent_enc;
  /// Points at parent_enc while expand_item runs, null during
  /// flush_pends (whose pended parents are no longer the assembled
  /// one): finalize_child patches the child encoding off it when set.
  const EncodedState* cur_parent_enc = nullptr;
  std::vector<std::uint64_t> block_scratch;
  /// Per-pid block hashes + multiset sums of the current parent (valid
  /// with cur_parent_enc, sym only): the child fingerprint is the
  /// shared fold plus these sums with the stepped block's hash swapped.
  std::vector<Fingerprint> parent_block_hash;
  std::uint64_t parent_sum_a = 0;
  std::uint64_t parent_sum_b = 0;
  /// Block-hash memo indexed by (lane, crashes, killed) — a block is a
  /// pure function of those three, so most children reuse an already
  /// hashed block.  {0,0} marks unset; a real hash equal to the
  /// sentinel merely recomputes.
  std::vector<Fingerprint> block_hash_memo;
  EncodedState child_enc;
  std::vector<std::uint32_t> slot_of;
  std::vector<std::uint64_t> child_item;
  std::vector<std::uint64_t> shared_scratch;
  std::vector<std::uint64_t> ring_tmp;
  std::vector<Pend> pends;
  std::vector<DeliverMiss> misses;
  std::vector<std::uint32_t> miss_lanes;
  std::vector<std::uint64_t> pend_shared;

  // Dedup scratch.
  std::vector<std::uint32_t> sort_idx;
  std::vector<std::uint32_t> dup_from_run;
  std::vector<Record> run_buf;
};

struct BestViolation {
  std::uint32_t depth;
  Fingerprint fp;
  ViolationKind kind;
};

struct Ctx {
  const FrontierExploreOptions* fopts = nullptr;
  const ExploreOptions* opts = nullptr;
  const SimWorld* root = nullptr;
  const SimConfig* cfg = nullptr;  ///< root->config(): defaults applied
  const ProgramFacts* facts = nullptr;
  LaneArena* arena = nullptr;
  bool sym = false;
  std::uint32_t S = 0;  ///< shared words
  std::uint32_t n = 0;  ///< processes
  std::size_t stride = 0;
  std::uint32_t num_objects = 0;
  std::uint32_t num_registers = 0;
  std::vector<std::uint64_t> input_sorted;  ///< distinct input raws
  std::vector<std::uint64_t> cand_raws;
  std::uint32_t num_shards = 1;
  std::uint32_t shard_bits = 0;
  std::uint32_t shard_mask = 0;
  std::uint32_t workers = 1;
  bool spill_enabled = false;
  /// No spilling configured: candidates are admitted into the census at
  /// routing time (table probe per child) instead of being staged,
  /// sorted and merge-joined at the wave boundary — the sort and the
  /// candidate copies exist only to support spill-run merge-join.
  bool direct = true;
  std::string spill_dir;
  std::uint64_t mem_limit = 0;
  std::vector<ShardState> shards;
  std::unique_ptr<util::HandoffMesh> mesh;
  std::unique_ptr<util::SpinBarrier> barrier;
  std::vector<WorkerState>* wlocals = nullptr;

  // Checker-internal coordination state — the engine runs outside the
  // traced object layer by construction, like parallel_explorer's.
  // ff-lint: allow(R1): checker-internal state-census counter
  std::atomic<std::uint64_t> states{0};
  // ff-lint: allow(R1): wave-quiescence counter of the checker itself
  std::atomic<std::uint32_t> expanding{0};
  // ff-lint: allow(R1): checker-internal abort flag, never protocol-visible
  std::atomic<bool> aborted{false};
  // ff-lint: allow(R1): checker-internal first-violation latch
  std::atomic<bool> found_violation{false};
  // ff-lint: allow(R1): wave-stop broadcast from worker 0, checker-internal
  std::atomic<bool> stop{false};
  // ff-lint: allow(R1): spill broadcast from worker 0, checker-internal
  std::atomic<bool> spill_now{false};

  // Worker-0-only (read by the main thread after the join).
  std::uint64_t waves = 0;
  std::uint64_t peak_bytes = 0;

  std::mutex violation_mu;
  std::optional<BestViolation> best;

  [[nodiscard]] std::uint32_t shard_of(const Fingerprint& fp) const {
    return static_cast<std::uint32_t>(fp.a) & shard_mask;
  }
  [[nodiscard]] std::uint32_t owner_of(std::uint32_t shard) const {
    return shard % workers;
  }
};

// ---------------------------------------------------------------------------
// Item encoding — the exact mirror of SimWorld::encode().
// ---------------------------------------------------------------------------

/// Assembles the block-structured encoding of an item: shared words
/// verbatim, then per pid the encode_process() block (separator, kill
/// flag, crash counter iff crash_budget > 0, machine encode words).
void assemble_enc(const Ctx& ctx, const std::uint64_t* item,
                  EncodedState& out) {
  out.words.clear();
  out.block_off.clear();
  const std::uint64_t* shared = item + kHeaderWords;
  out.words.insert(out.words.end(), shared, shared + ctx.S);
  out.shared_len = ctx.S;
  out.block_off.push_back(ctx.S);
  const std::uint64_t* pw = item + kHeaderWords + ctx.S;
  const bool crashes_on = ctx.cfg->crash_budget > 0;
  for (std::uint32_t pid = 0; pid < ctx.n; ++pid) {
    out.words.push_back(0xFEEDFACEFEEDFACEULL);
    out.words.push_back(item_killed(pw[pid]) ? 1 : 0);
    if (crashes_on) out.words.push_back(item_crashes(pw[pid]));
    ctx.arena->encode_lane(item_lane(pw[pid]), out.words);
    out.block_off.push_back(static_cast<std::uint32_t>(out.words.size()));
  }
}

/// SimWorld::fault_allowed over the item's capped fault counts.  The
/// encoding stores min(used, t), and capped == t ⟺ used >= t, so the
/// budget test is exact; with t = ∞ the counts are 0 and never gate.
[[nodiscard]] bool item_fault_allowed(const Ctx& ctx,
                                      const std::uint64_t* shared,
                                      objects::ProcessId pid,
                                      objects::ObjectId obj) {
  if (ctx.cfg->kind == model::FaultKind::kNone) return false;
  if (!ctx.cfg->object_faulty(obj)) return false;
  if (ctx.cfg->t != model::kUnbounded &&
      shared[ctx.num_objects + ctx.num_registers + obj] >= ctx.cfg->t) {
    return false;
  }
  if (pid != kAdversaryPid && !ctx.cfg->faulting_processes.empty() &&
      !ctx.cfg->faulting_processes.contains(pid)) {
    return false;
  }
  return true;
}

/// Mirrors encode_shared's count update: the stored word is the CAPPED
/// count min(used, t), so a manifested fault bumps it saturating at t.
void bump_fault_cap(const Ctx& ctx, std::uint64_t* shared,
                    objects::ObjectId obj) {
  if (ctx.cfg->t == model::kUnbounded) return;
  std::uint64_t& w = shared[ctx.num_objects + ctx.num_registers + obj];
  if (w < ctx.cfg->t) ++w;
}

// ---------------------------------------------------------------------------
// Expansion.
// ---------------------------------------------------------------------------

bool drain_rings(Ctx& ctx, WorkerState& ws, std::uint32_t w);
std::uint32_t admit_item(Ctx& ctx, WorkerState& ws, std::uint32_t shard_idx,
                         std::uint64_t* item, std::uint32_t existing,
                         std::vector<std::uint64_t>& next_wave);

/// Rebuilds one pid's encode block into ws.block_scratch — the exact
/// per-pid segment assemble_enc emits (separator, kill flag, crash
/// counter iff crash_budget > 0, machine encode words).
void build_block(const Ctx& ctx, WorkerState& ws, std::uint64_t pw) {
  ws.block_scratch.clear();
  ws.block_scratch.push_back(0xFEEDFACEFEEDFACEULL);
  ws.block_scratch.push_back(item_killed(pw) ? 1 : 0);
  if (ctx.cfg->crash_budget > 0) ws.block_scratch.push_back(item_crashes(pw));
  ctx.arena->encode_lane(item_lane(pw), ws.block_scratch);
}

/// Memoized hash_block of the block build_block(pw) would produce.
/// The dense index covers lanes × crash counts × the kill flag; lanes
/// past the cap (runaway scalar protocols) compute uncached.
[[nodiscard]] Fingerprint block_hash_cached(const Ctx& ctx, WorkerState& ws,
                                            std::uint64_t pw) {
  constexpr std::size_t kBlockMemoCap = std::size_t{1} << 21;
  const std::size_t idx =
      ((std::size_t{item_lane(pw)} * (ctx.cfg->crash_budget + 1) +
        item_crashes(pw))
       << 1) |
      (item_killed(pw) ? 1 : 0);
  if (idx >= kBlockMemoCap) {
    build_block(ctx, ws, pw);
    return hash_block(ws.block_scratch.data(),
                      ws.block_scratch.data() + ws.block_scratch.size());
  }
  if (idx >= ws.block_hash_memo.size()) {
    ws.block_hash_memo.resize(
        std::max<std::size_t>(idx + 1, ws.block_hash_memo.size() * 2),
        Fingerprint{0, 0});
  }
  Fingerprint& slot = ws.block_hash_memo[idx];
  if (slot.a == 0 && slot.b == 0) {
    build_block(ctx, ws, pw);
    slot = hash_block(ws.block_scratch.data(),
                      ws.block_scratch.data() + ws.block_scratch.size());
  }
  return slot;
}

/// Child encoding by patching the parent's: the shared prefix always
/// changes, but at most one pid block does (none for adversary steps),
/// so the other blocks are a straight copy.  Falls back to full
/// assembly when the stepped block changes length (variable-length
/// scalar machine encodings).
void patch_enc(const Ctx& ctx, WorkerState& ws, const EncodedState& parent,
               const std::uint64_t* c, std::uint32_t pid, EncodedState& out) {
  out.words.assign(parent.words.begin(), parent.words.end());
  out.block_off.assign(parent.block_off.begin(), parent.block_off.end());
  out.shared_len = parent.shared_len;
  std::copy(c + kHeaderWords, c + kHeaderWords + ctx.S, out.words.begin());
  if (pid == kAdversaryPid) return;
  build_block(ctx, ws, c[kHeaderWords + ctx.S + pid]);
  const std::uint32_t begin = out.block_off[pid];
  const std::uint32_t end = out.block_off[pid + 1];
  if (ws.block_scratch.size() != std::size_t{end} - begin) {
    assemble_enc(ctx, c, out);
    return;
  }
  std::copy(ws.block_scratch.begin(), ws.block_scratch.end(),
            out.words.begin() + begin);
}

/// Builds the successor item and routes it: own shard → admitted into
/// the census immediately (direct mode) or staged in the candidate
/// buffer (spill mode), foreign shard → its owner's ring (draining our
/// own inbox while the ring is full, so mutual-full rings cannot
/// deadlock).
void finalize_child(Ctx& ctx, WorkerState& ws, std::uint32_t w,
                    const std::uint64_t* item, std::uint32_t pid,
                    std::uint32_t variant, std::uint8_t flags,
                    std::uint8_t slot, const std::uint64_t* shared,
                    std::uint32_t new_lane, bool kill) {
  std::uint64_t* c = ws.child_item.data();
  std::memcpy(c + kHeaderWords, shared, ctx.S * sizeof(std::uint64_t));
  std::memcpy(c + kHeaderWords + ctx.S, item + kHeaderWords + ctx.S,
              ctx.n * sizeof(std::uint64_t));
  if (pid != kAdversaryPid) {
    const std::uint64_t old = item[kHeaderWords + ctx.S + pid];
    const std::uint32_t crashes =
        item_crashes(old) + ((flags & kChoiceCrash) != 0 ? 1u : 0u);
    c[kHeaderWords + ctx.S + pid] =
        pack_pid_word(new_lane, crashes, kill || item_killed(old));
  }
  Fingerprint fp;
  if (ctx.sym && ws.cur_parent_enc != nullptr) {
    // Incremental canonical fingerprint: fold the child's shared words
    // and swap the stepped pid's block hash in the parent's multiset
    // sums — no child encoding is materialized at all.
    std::uint64_t sum_a = ws.parent_sum_a;
    std::uint64_t sum_b = ws.parent_sum_b;
    if (pid != kAdversaryPid) {
      const Fingerprint h =
          block_hash_cached(ctx, ws, c[kHeaderWords + ctx.S + pid]);
      sum_a += h.a - ws.parent_block_hash[pid].a;
      sum_b += h.b - ws.parent_block_hash[pid].b;
    }
    fp = fingerprint_shared_sum(c + kHeaderWords, ctx.S, sum_a, sum_b);
  } else if (ws.cur_parent_enc != nullptr) {
    patch_enc(ctx, ws, *ws.cur_parent_enc, c, pid, ws.child_enc);
    fp = fingerprint_state(ws.child_enc, ctx.sym);
  } else {
    assemble_enc(ctx, c, ws.child_enc);
    fp = fingerprint_state(ws.child_enc, ctx.sym);
  }
  const std::uint32_t shard = ctx.shard_of(fp);
  const std::uint32_t owner = ctx.owner_of(shard);
  // Start the dedup probe's cache fill while the header words are
  // written — admit_item's find lands on a warm line.
  if (ctx.direct && owner == w) ctx.shards[shard].table.prefetch(fp);
  c[kItFpA] = fp.a;
  c[kItFpB] = fp.b;
  c[kItParA] = item[kItFpA];
  c[kItParB] = item[kItFpB];
  c[kItChoice] = std::uint64_t{pid} | (std::uint64_t{variant} << 32);
  c[kItParent] = (item[kItDepth] >> 32) | (std::uint64_t{flags} << 32) |
                 (std::uint64_t{slot} << 40);
  c[kItDepth] = static_cast<std::uint32_t>(item[kItDepth]) + 1;
  if (owner == w) {
    ShardState& sh = ctx.shards[shard];
    if (ctx.direct) {
      admit_item(ctx, ws, shard, c, sh.table.find(fp), sh.cand);
    } else {
      sh.cand.insert(sh.cand.end(), c, c + ctx.stride);
    }
    return;
  }
  ++ws.forwarded;
  util::SpscWordRing& ring = ctx.mesh->ring(w, owner);
  bool pushed = ring.try_push(c);
  while (!pushed) {
    (void)drain_rings(ctx, ws, w);
    pushed = ring.try_push(c);
  }
}

/// Deliver-edge successor: worker cache first, else queued for the
/// block's arena resolve (the child's shared words are snapshotted into
/// pend_shared until the flush).
void deliver_child(Ctx& ctx, WorkerState& ws, std::uint32_t w,
                   const std::uint64_t* item, std::uint32_t pid,
                   std::uint32_t variant, std::uint8_t flags,
                   std::uint8_t slot, const std::uint64_t* shared,
                   std::uint32_t lane, std::uint64_t returned) {
  const Fingerprint key = memo_key(lane, returned);
  const std::uint32_t hit = ws.deliver_cache.find(key);
  if (hit != FlatFpMap::kNoValue) {
    ++ws.memo_hits;
    finalize_child(ctx, ws, w, item, pid, variant, flags, slot, shared, hit,
                   false);
    return;
  }
  const auto off = static_cast<std::uint32_t>(ws.pend_shared.size());
  ws.pend_shared.insert(ws.pend_shared.end(), shared, shared + ctx.S);
  ws.pends.push_back(Pend{item, static_cast<std::uint32_t>(ws.misses.size()),
                          pid, variant, flags, slot, off});
  ws.misses.push_back(DeliverMiss{lane, returned});
}

void flush_pends(Ctx& ctx, WorkerState& ws, std::uint32_t w) {
  if (ws.pends.empty()) return;
  ws.cur_parent_enc = nullptr;  // pended parents: not the assembled one
  ctx.arena->resolve_delivers(ws.misses, ws.miss_lanes);
  for (std::size_t i = 0; i < ws.misses.size(); ++i) {
    ws.deliver_cache.insert_or_get(
        memo_key(ws.misses[i].lane, ws.misses[i].returned),
        ws.miss_lanes[i]);
  }
  // finalize_child may push into pend_shared-free structures only; the
  // pend list itself is fixed now, so iterate by index over a swap.
  std::vector<Pend> pends;
  pends.swap(ws.pends);
  for (const Pend& p : pends) {
    finalize_child(ctx, ws, w, p.item, p.pid, p.variant, p.flags, p.slot,
                   ws.pend_shared.data() + p.shared_off,
                   ws.miss_lanes[p.miss_idx], false);
  }
  ws.pends.clear();
  ws.misses.clear();
  ws.pend_shared.clear();
}

[[nodiscard]] std::uint32_t resolve_crash_cached(Ctx& ctx, WorkerState& ws,
                                                 std::uint32_t lane) {
  const Fingerprint key = memo_key(lane, 0);
  const std::uint32_t hit = ws.crash_cache.find(key);
  if (hit != FlatFpMap::kNoValue) {
    ++ws.memo_hits;
    return hit;
  }
  const std::uint32_t next = ctx.arena->resolve_crash(lane);
  ws.crash_cache.insert_or_get(key, next);
  return next;
}

/// Enumerates every enabled Choice of the item — the exact mirror of
/// SimWorld::enabled() + apply(), operating on shared raws and lanes.
void expand_item(Ctx& ctx, WorkerState& ws, std::uint32_t w,
                 const std::uint64_t* item) {
  const std::uint64_t* shared = item + kHeaderWords;
  const std::uint64_t* pw = item + kHeaderWords + ctx.S;
  std::uint64_t* scratch = ws.shared_scratch.data();

  assemble_enc(ctx, item, ws.parent_enc);
  ws.cur_parent_enc = &ws.parent_enc;
  if (ctx.sym) {
    canonical_slots(ws.parent_enc, ws.slot_of);
    ws.parent_block_hash.resize(ctx.n);
    ws.parent_sum_a = 0;
    ws.parent_sum_b = 0;
    for (std::uint32_t p = 0; p < ctx.n; ++p) {
      const Fingerprint h = block_hash_cached(
          ctx, ws, item[kHeaderWords + ctx.S + p]);
      ws.parent_block_hash[p] = h;
      ws.parent_sum_a += h.a;
      ws.parent_sum_b += h.b;
    }
  }
  const auto slot_for = [&](std::uint32_t pid) -> std::uint8_t {
    if (!ctx.sym || pid == kAdversaryPid) return kNoSlot;
    return static_cast<std::uint8_t>(ws.slot_of[pid]);
  };

  const auto C = static_cast<std::uint32_t>(ctx.cand_raws.size());
  bool any_live = false;
  for (std::uint32_t pid = 0; pid < ctx.n; ++pid) {
    if (item_killed(pw[pid])) continue;
    const std::uint32_t lane = item_lane(pw[pid]);
    const LaneMeta& m = ctx.arena->meta(lane);
    if (m.done) continue;
    any_live = true;
    const PendingOp& op = m.op;
    const std::uint8_t slot = slot_for(pid);

    // A corrupted delivered value can drive an indexed protocol to an
    // out-of-range object/register (SimWorld's .at() throws there; a
    // worker thread cannot, so the run aborts as incomplete instead).
    if ((op.type == OpType::kCas && op.object >= ctx.num_objects) ||
        ((op.type == OpType::kRegRead || op.type == OpType::kRegWrite) &&
         op.object >= ctx.num_registers)) {
      ctx.aborted.store(true, std::memory_order_relaxed);
      return;
    }

    if (op.type == OpType::kCas) {
      const std::uint64_t before = shared[op.object];
      const std::uint64_t expected = op.expected.raw();
      const std::uint64_t desired = op.desired.raw();
      const std::uint64_t after = before == expected ? desired : before;

      // Correct step: objects[obj] = after, deliver(before).
      std::memcpy(scratch, shared, ctx.S * sizeof(std::uint64_t));
      scratch[op.object] = after;
      deliver_child(ctx, ws, w, item, pid, 0, 0, slot, scratch, lane, before);

      // Fault branches (Definition 1: only manifesting outcomes).
      if (item_fault_allowed(ctx, shared, pid, op.object)) {
        switch (ctx.cfg->kind) {
          case model::FaultKind::kOverriding:
            if (ctx.cfg->use_immunity_pruning && ctx.facts != nullptr &&
                ctx.facts->object_immune(op.object)) {
              ++ws.immunity_skips;
              assert(!(before != expected && before != desired) &&
                     "A2 overriding-immunity certificate violated");
              break;
            }
            ++ws.immunity_checks;
            if (before != expected && before != desired) {
              std::memcpy(scratch, shared, ctx.S * sizeof(std::uint64_t));
              scratch[op.object] = desired;
              bump_fault_cap(ctx, scratch, op.object);
              deliver_child(ctx, ws, w, item, pid, 0, kChoiceFault, slot,
                            scratch, lane, before);
            }
            break;
          case model::FaultKind::kSilent:
            if (before == expected && before != desired) {
              std::memcpy(scratch, shared, ctx.S * sizeof(std::uint64_t));
              bump_fault_cap(ctx, scratch, op.object);
              deliver_child(ctx, ws, w, item, pid, 0, kChoiceFault, slot,
                            scratch, lane, before);
            }
            break;
          case model::FaultKind::kInvisible:
            std::memcpy(scratch, shared, ctx.S * sizeof(std::uint64_t));
            scratch[op.object] = after;
            bump_fault_cap(ctx, scratch, op.object);
            deliver_child(ctx, ws, w, item, pid, 0, kChoiceFault, slot,
                          scratch, lane, before + 1);
            break;
          case model::FaultKind::kNonresponsive:
            // The operation never returns: the machine is NOT stepped,
            // the process is killed, budget is consumed.
            std::memcpy(scratch, shared, ctx.S * sizeof(std::uint64_t));
            bump_fault_cap(ctx, scratch, op.object);
            finalize_child(ctx, ws, w, item, pid, 0, kChoiceFault, slot,
                           scratch, lane, true);
            break;
          case model::FaultKind::kArbitrary:
            for (std::uint32_t v = 0; v < C; ++v) {
              if (ctx.cand_raws[v] == after) continue;
              std::memcpy(scratch, shared, ctx.S * sizeof(std::uint64_t));
              scratch[op.object] = ctx.cand_raws[v];
              bump_fault_cap(ctx, scratch, op.object);
              deliver_child(ctx, ws, w, item, pid, v, kChoiceFault, slot,
                            scratch, lane, before);
            }
            break;
          case model::FaultKind::kDataCorruption:
          case model::FaultKind::kNone:
            break;  // adversary steps / no per-operation faults
        }
      }
    } else if (op.type == OpType::kRegRead) {
      deliver_child(ctx, ws, w, item, pid, 0, 0, slot, shared, lane,
                    shared[ctx.num_objects + op.object]);
    } else if (op.type == OpType::kRegWrite) {
      std::memcpy(scratch, shared, ctx.S * sizeof(std::uint64_t));
      scratch[ctx.num_objects + op.object] = op.desired.raw();
      deliver_child(ctx, ws, w, item, pid, 0, 0, slot, scratch, lane,
                    kBottomRaw);
    }

    // Crash branches (variant 0 = crash-before, 1 = crash-after).
    if (ctx.cfg->crash_budget > 0 &&
        item_crashes(pw[pid]) < ctx.cfg->crash_budget && m.can_crash) {
      const std::uint32_t crash_lane = resolve_crash_cached(ctx, ws, lane);
      finalize_child(ctx, ws, w, item, pid, 0, kChoiceCrash, slot, shared,
                     crash_lane, false);
      if (op.type == OpType::kCas) {
        const std::uint64_t before = shared[op.object];
        const std::uint64_t after =
            before == op.expected.raw() ? op.desired.raw() : before;
        if (after != before) {
          std::memcpy(scratch, shared, ctx.S * sizeof(std::uint64_t));
          scratch[op.object] = after;
          finalize_child(ctx, ws, w, item, pid, 1, kChoiceCrash, slot,
                         scratch, crash_lane, false);
        }
      } else if (op.type == OpType::kRegWrite &&
                 shared[ctx.num_objects + op.object] != op.desired.raw()) {
        std::memcpy(scratch, shared, ctx.S * sizeof(std::uint64_t));
        scratch[ctx.num_objects + op.object] = op.desired.raw();
        finalize_child(ctx, ws, w, item, pid, 1, kChoiceCrash, slot, scratch,
                       crash_lane, false);
      }
    }
  }

  // Adversary corruption steps (data-fault model).
  if (any_live && ctx.cfg->allow_corruption_steps &&
      ctx.cfg->kind == model::FaultKind::kDataCorruption) {
    for (objects::ObjectId obj = 0; obj < ctx.num_objects; ++obj) {
      if (!item_fault_allowed(ctx, shared, kAdversaryPid, obj)) continue;
      for (std::uint32_t v = 0; v < C; ++v) {
        if (ctx.cand_raws[v] == shared[obj]) continue;
        std::memcpy(scratch, shared, ctx.S * sizeof(std::uint64_t));
        scratch[obj] = ctx.cand_raws[v];
        bump_fault_cap(ctx, scratch, obj);
        finalize_child(ctx, ws, w, item, kAdversaryPid, obj * C + v,
                       kChoiceFault, kNoSlot, scratch, 0, false);
      }
    }
  }
}

/// Pops every inbound ring into the owned shards' census (direct mode)
/// or candidate buffers (spill mode).
bool drain_rings(Ctx& ctx, WorkerState& ws, std::uint32_t w) {
  bool any = false;
  for (std::uint32_t p = 0; p < ctx.workers; ++p) {
    util::SpscWordRing& ring = ctx.mesh->ring(p, w);
    while (ring.try_pop(ws.ring_tmp.data())) {
      any = true;
      const Fingerprint fp{ws.ring_tmp[kItFpA], ws.ring_tmp[kItFpB]};
      const std::uint32_t shard = ctx.shard_of(fp);
      ShardState& sh = ctx.shards[shard];
      if (ctx.direct) {
        admit_item(ctx, ws, shard, ws.ring_tmp.data(), sh.table.find(fp),
                   sh.cand);
      } else {
        sh.cand.insert(sh.cand.end(), ws.ring_tmp.begin(),
                       ws.ring_tmp.begin() + ctx.stride);
      }
    }
  }
  return any;
}

void expand_phase(Ctx& ctx, WorkerState& ws, std::uint32_t w,
                  runtime::BudgetMeter& meter) {
  std::size_t since_flush = 0;
  for (std::uint32_t s = w; s < ctx.num_shards; s += ctx.workers) {
    ShardState& sh = ctx.shards[s];
    for (std::size_t off = 0; off + ctx.stride <= sh.wave.size();
         off += ctx.stride) {
      if (ctx.aborted.load(std::memory_order_relaxed)) break;
      if (!meter.charge()) {
        ctx.aborted.store(true, std::memory_order_relaxed);
        break;
      }
      expand_item(ctx, ws, w, sh.wave.data() + off);
      if (++since_flush >= kExpandBlock) {
        flush_pends(ctx, ws, w);
        (void)drain_rings(ctx, ws, w);
        since_flush = 0;
      }
    }
  }
  flush_pends(ctx, ws, w);
}

// ---------------------------------------------------------------------------
// Deduplication and census.
// ---------------------------------------------------------------------------

/// detail::check_terminal over item words (no SimWorld): same pid order,
/// same precedence (invalid before inconsistent, stalled last), so the
/// violation KIND matches the sequential engine state-for-state.  The
/// human-readable detail string is produced only for the one reported
/// violation, by replaying its witness (build_witness).
struct TerminalVerdict {
  std::optional<ViolationKind> kind;
  std::optional<std::uint64_t> agreed;
};

[[nodiscard]] TerminalVerdict check_terminal_item(const Ctx& ctx,
                                                  const std::uint64_t* item) {
  TerminalVerdict out;
  const std::uint64_t* pw = item + kHeaderWords + ctx.S;
  bool any_killed = false;
  std::optional<std::uint64_t> first;
  for (std::uint32_t pid = 0; pid < ctx.n; ++pid) {
    if (item_killed(pw[pid])) {
      any_killed = true;
      continue;
    }
    const LaneMeta& m = ctx.arena->meta(item_lane(pw[pid]));
    if (!m.done) continue;
    const std::uint64_t value = m.decision;
    if (!std::binary_search(ctx.input_sorted.begin(), ctx.input_sorted.end(),
                            value)) {
      out.kind = ViolationKind::kInvalid;
      return out;
    }
    if (first && *first != value) {
      out.kind = ViolationKind::kInconsistent;
      return out;
    }
    if (!first) first = value;
  }
  if (ctx.opts->killed_is_violation && any_killed) {
    out.kind = ViolationKind::kStalled;
    return out;
  }
  out.agreed = first;
  return out;
}

[[nodiscard]] bool item_terminal(const Ctx& ctx, const std::uint64_t* item) {
  const std::uint64_t* pw = item + kHeaderWords + ctx.S;
  for (std::uint32_t pid = 0; pid < ctx.n; ++pid) {
    if (!item_killed(pw[pid]) &&
        !ctx.arena->meta(item_lane(pw[pid])).done) {
      return false;
    }
  }
  return true;
}

void offer_violation(Ctx& ctx, std::uint32_t depth, const Fingerprint& fp,
                     ViolationKind kind) {
  std::lock_guard<std::mutex> g(ctx.violation_mu);
  if (!ctx.best || depth < ctx.best->depth ||
      (depth == ctx.best->depth && fp_less(fp, ctx.best->fp))) {
    ctx.best = BestViolation{depth, fp, kind};
  }
  ctx.found_violation.store(true, std::memory_order_relaxed);
}

/// Census admission of one owner-routed candidate.  `existing` is the
/// caller's dedup lookup result (kNoValue when the fingerprint is new).
/// Duplicate → record the transition edge; novel → intern the
/// fingerprint, assign the dense id, push the Record, and either run
/// the terminal verdict or append the item to `next_wave`.  Returns
/// the table value of the fingerprint (seq | terminal flag).
/// Single-writer: only the shard's owner may call this.  A state is
/// admitted with depth = parent depth + 1 whether admission happens at
/// routing time (direct mode) or at the wave boundary (spill mode) —
/// every candidate of wave d carries depth d+1 — so the census and the
/// BFS depth-minimality guarantee are identical in both modes.
std::uint32_t admit_item(Ctx& ctx, WorkerState& ws, std::uint32_t shard_idx,
                         std::uint64_t* item, std::uint32_t existing,
                         std::vector<std::uint64_t>& next_wave) {
  ShardState& sh = ctx.shards[shard_idx];
  const Fingerprint fp{item[kItFpA], item[kItFpB]};
  const auto depth = static_cast<std::uint32_t>(item[kItDepth]);
  const auto parent_id = static_cast<std::uint32_t>(item[kItParent]);
  const auto pid = static_cast<std::uint32_t>(item[kItChoice]);
  const auto variant = static_cast<std::uint32_t>(item[kItChoice] >> 32);
  const auto flags = static_cast<std::uint8_t>(item[kItParent] >> 32);
  const auto slot = static_cast<std::uint8_t>(item[kItParent] >> 40);

  if (existing != FlatFpMap::kNoValue) {
    // Duplicate: record the transition edge (non-terminal targets
    // only — terminal states cannot sit on a cycle).
    if ((existing & kTerminalFlag) == 0 && parent_id != kNoParent) {
      const std::uint32_t to =
          ((existing & ~kTerminalFlag) << ctx.shard_bits) | shard_idx;
      ws.edges.push_back(CycleEdge{parent_id, to, pid, variant, flags, slot});
    }
    return existing;
  }

  // Novel state.
  const bool terminal = item_terminal(ctx, item);
  const std::uint32_t seq = sh.next_seq;
  if ((std::uint64_t{seq} << ctx.shard_bits) > kIdSpace) {
    ctx.aborted.store(true, std::memory_order_relaxed);
    return FlatFpMap::kNoValue;
  }
  ++sh.next_seq;
  std::uint32_t value = seq;
  if (terminal) value |= kTerminalFlag;
  sh.table.insert_or_get(fp, value);
  const std::uint32_t id = (seq << ctx.shard_bits) | shard_idx;
  item[kItDepth] =
      static_cast<std::uint32_t>(item[kItDepth]) | (std::uint64_t{id} << 32);

  Record rec;
  rec.fp = fp;
  rec.parent_fp = Fingerprint{item[kItParA], item[kItParB]};
  rec.seq = seq;
  rec.parent_id = parent_id;
  rec.pid = pid;
  rec.variant = variant;
  rec.flags = flags | (terminal ? kRecTerminal : 0);
  rec.slot = slot;
  sh.records.push_back(rec);
  sh.fp_by_seq.push_back(fp);

  const std::uint64_t nstates =
      ctx.states.fetch_add(1, std::memory_order_relaxed) + 1;
  if ((ctx.opts->max_states != 0 && nstates > ctx.opts->max_states) ||
      nstates > kIdSpace) {
    ctx.aborted.store(true, std::memory_order_relaxed);
    return value;
  }
  ws.max_depth = std::max<std::uint64_t>(ws.max_depth, depth);

  if (!terminal && parent_id != kNoParent) {
    ws.edges.push_back(CycleEdge{parent_id, id, pid, variant, flags, slot});
  }

  if (terminal) {
    ++ws.terminal_states;
    const TerminalVerdict v = check_terminal_item(ctx, item);
    if (v.kind) {
      ++ws.violations_found;
      ++ws.by_kind[*v.kind];
      offer_violation(ctx, depth, fp, *v.kind);
    } else if (v.agreed) {
      ws.agreed_values.insert(*v.agreed);
    }
  } else {
    next_wave.insert(next_wave.end(), item, item + ctx.stride);
  }
  return value;
}

/// Marks candidates whose fingerprint already sits in a spill run:
/// streamed merge-join of the fp-sorted candidate order against each
/// sorted run.  dup value = seq | terminal flag.
void mark_run_duplicates(const Ctx& ctx, WorkerState& ws, ShardState& sh) {
  const std::size_t count = ws.sort_idx.size();
  const auto cand_fp = [&](std::uint32_t ci) {
    const std::uint64_t* it = sh.cand.data() + std::size_t{ci} * ctx.stride;
    return Fingerprint{it[kItFpA], it[kItFpB]};
  };
  ws.run_buf.resize(kRunBuf);
  for (const std::string& path : sh.runs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;  // run unreadable: treated as empty (abort below)
    std::size_t ci = 0;
    bool more = true;
    while (more && ci < count) {
      in.read(reinterpret_cast<char*>(ws.run_buf.data()),
              static_cast<std::streamsize>(kRunBuf * sizeof(Record)));
      const std::size_t got =
          static_cast<std::size_t>(in.gcount()) / sizeof(Record);
      more = got == kRunBuf;
      for (std::size_t r = 0; r < got && ci < count; ++r) {
        const Record& rec = ws.run_buf[r];
        while (ci < count && fp_less(cand_fp(ws.sort_idx[ci]), rec.fp)) ++ci;
        while (ci < count && cand_fp(ws.sort_idx[ci]) == rec.fp) {
          ws.dup_from_run[ws.sort_idx[ci]] =
              rec.seq | ((rec.flags & kRecTerminal) != 0 ? kTerminalFlag : 0);
          ++ci;
        }
      }
    }
  }
}

/// Wave-boundary dedup of one shard.  Direct mode (no spilling):
/// candidates were censused at routing time, cand already IS the next
/// wave — flip the buffers.  Spill mode: sort the staged candidates by
/// fingerprint, merge-join against the spill runs, probe the private
/// table, census the novel states and build the next wave.
void dedup_shard(Ctx& ctx, WorkerState& ws, std::uint32_t shard_idx) {
  ShardState& sh = ctx.shards[shard_idx];
  sh.wave.clear();
  if (ctx.direct) {
    sh.wave.swap(sh.cand);
    return;
  }
  const std::size_t count = sh.cand.size() / ctx.stride;
  if (count == 0) return;

  ws.sort_idx.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) ws.sort_idx[i] = i;
  std::sort(ws.sort_idx.begin(), ws.sort_idx.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              const std::uint64_t* ix = sh.cand.data() + std::size_t{x} * ctx.stride;
              const std::uint64_t* iy = sh.cand.data() + std::size_t{y} * ctx.stride;
              return ix[kItFpA] < iy[kItFpA] ||
                     (ix[kItFpA] == iy[kItFpA] && ix[kItFpB] < iy[kItFpB]);
            });
  ws.dup_from_run.assign(count, FlatFpMap::kNoValue);
  if (!sh.runs.empty()) mark_run_duplicates(ctx, ws, sh);

  Fingerprint prev_fp{};
  std::uint32_t prev_value = FlatFpMap::kNoValue;
  bool have_prev = false;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t ci = ws.sort_idx[k];
    std::uint64_t* item = sh.cand.data() + std::size_t{ci} * ctx.stride;
    const Fingerprint fp{item[kItFpA], item[kItFpB]};

    std::uint32_t existing = FlatFpMap::kNoValue;
    if (have_prev && fp == prev_fp) {
      existing = prev_value;
    } else if (ws.dup_from_run[ci] != FlatFpMap::kNoValue) {
      existing = ws.dup_from_run[ci];
    } else {
      existing = sh.table.find(fp);
    }

    prev_value = admit_item(ctx, ws, shard_idx, item, existing, sh.wave);
    if (ctx.aborted.load(std::memory_order_relaxed)) return;
    have_prev = true;
    prev_fp = fp;
  }
  sh.cand.clear();
}

// ---------------------------------------------------------------------------
// Spill.
// ---------------------------------------------------------------------------

void spill_shard(Ctx& ctx, WorkerState& ws, std::uint32_t shard_idx) {
  ShardState& sh = ctx.shards[shard_idx];
  if (sh.records.empty()) return;
  std::sort(sh.records.begin(), sh.records.end(),
            [](const Record& x, const Record& y) { return fp_less(x.fp, y.fp); });
  const std::string path = ctx.spill_dir + "/shard" +
                           std::to_string(shard_idx) + ".run" +
                           std::to_string(sh.runs.size());
  std::ofstream outf(path, std::ios::binary | std::ios::trunc);
  outf.write(reinterpret_cast<const char*>(sh.records.data()),
             static_cast<std::streamsize>(sh.records.size() * sizeof(Record)));
  if (!outf) {
    // A lost run would silently re-admit spilled states; abort instead.
    ctx.aborted.store(true, std::memory_order_relaxed);
    return;
  }
  ++ws.spill_runs;
  ws.spilled_records += sh.records.size();
  ws.spill_bytes += sh.records.size() * sizeof(Record);
  sh.runs.push_back(path);
  sh.spilled_base = sh.next_seq;
  std::vector<Record>().swap(sh.records);
  sh.grows += sh.table.grows();
  sh.table = FlatFpMap(1024);
}

// ---------------------------------------------------------------------------
// Witness reconstruction (through memory or spilled runs).
// ---------------------------------------------------------------------------

/// Binary search of one sorted run file for `fp` (seekg on 56-byte
/// records).  Returns true and fills `out` on a hit.
[[nodiscard]] bool search_run(const std::string& path, const Fingerprint& fp,
                              Record& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const auto bytes = static_cast<std::uint64_t>(in.tellg());
  std::uint64_t lo = 0, hi = bytes / sizeof(Record);
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    Record rec;
    in.seekg(static_cast<std::streamoff>(mid * sizeof(Record)));
    in.read(reinterpret_cast<char*>(&rec), sizeof(Record));
    if (!in) return false;
    if (rec.fp == fp) {
      out = rec;
      return true;
    }
    if (fp_less(rec.fp, fp)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

[[nodiscard]] bool lookup_record(const Ctx& ctx, const Fingerprint& fp,
                                 Record& out) {
  const ShardState& sh = ctx.shards[ctx.shard_of(fp)];
  const std::uint32_t v = sh.table.find(fp);
  if (v != FlatFpMap::kNoValue) {
    const std::uint32_t seq = v & ~kTerminalFlag;
    assert(seq >= sh.spilled_base);
    out = sh.records[seq - sh.spilled_base];
    return true;
  }
  for (auto it = sh.runs.rbegin(); it != sh.runs.rend(); ++it) {
    if (search_run(*it, fp, out)) return true;
  }
  return false;
}

/// Discovery chain root → fp (forward order), walked through the
/// parent-fingerprint back-pointers.  Each hop strictly decreases BFS
/// depth, so the walk is bounded by the state's depth.
[[nodiscard]] std::vector<Record> record_chain(const Ctx& ctx,
                                               Fingerprint fp) {
  std::vector<Record> chain;
  Record rec;
  bool ok = lookup_record(ctx, fp, rec);
  while (ok && rec.parent_id != kNoParent) {
    chain.push_back(rec);
    ok = lookup_record(ctx, rec.parent_fp, rec);
  }
  assert(ok && "witness chain must reach the root");
  std::reverse(chain.begin(), chain.end());
  return chain;
}

/// Replays the chain from the root, re-resolving each recorded choice's
/// pid through its canonical slot (under symmetry a later walk may hold
/// a different orbit representative than the discoverer did; the slot
/// is orbit-invariant — same scheme as parallel_explore).
[[nodiscard]] std::vector<Choice> path_to(const Ctx& ctx,
                                          const Fingerprint& fp,
                                          SimWorld* world_out) {
  const std::vector<Record> chain = record_chain(ctx, fp);
  std::vector<Choice> out;
  out.reserve(chain.size());
  SimWorld world = *ctx.root;
  StateEncoder encoder;
  EncodedState enc;
  std::vector<std::uint32_t> order;
  for (const Record& rec : chain) {
    Choice c = record_choice(rec.pid, rec.variant, rec.flags);
    if (ctx.sym && rec.slot != kNoSlot) {
      encoder.encode(world, enc);
      canonical_order(enc, order);
      c.pid = order[rec.slot];
    }
    out.push_back(c);
    world.apply(c);
  }
  if (world_out != nullptr) *world_out = std::move(world);
  return out;
}

[[nodiscard]] Violation build_witness(const Ctx& ctx,
                                      const BestViolation& best) {
  SimWorld world = *ctx.root;
  std::vector<Choice> schedule = path_to(ctx, best.fp, &world);
  std::string why;
  const auto kind = detail::check_terminal(world, *ctx.opts, why);
  assert(kind && *kind == best.kind &&
         "replayed witness must reproduce the recorded violation kind");
  (void)kind;
  return Violation{best.kind, std::move(schedule), std::move(why)};
}

// ---------------------------------------------------------------------------
// Wave loop.
// ---------------------------------------------------------------------------

[[nodiscard]] std::uint64_t census_bytes(Ctx& ctx) {
  std::uint64_t total =
      ctx.arena->bytes() + ctx.mesh->capacity_bytes();
  for (const ShardState& sh : ctx.shards) {
    total += sh.table.capacity() * 24 + sh.records.capacity() * sizeof(Record);
    total += (sh.wave.capacity() + sh.cand.capacity()) * 8;
    total += sh.fp_by_seq.capacity() * sizeof(Fingerprint);
  }
  for (const WorkerState& wsx : *ctx.wlocals) {
    total += wsx.edges.capacity() * sizeof(CycleEdge);
    total += (wsx.deliver_cache.capacity() + wsx.crash_cache.capacity()) * 24;
  }
  return total;
}

/// The spillable structures the watermark governs (tables + records).
[[nodiscard]] std::uint64_t spillable_bytes(const Ctx& ctx) {
  std::uint64_t total = 0;
  for (const ShardState& sh : ctx.shards) {
    total += sh.table.capacity() * 24 + sh.records.capacity() * sizeof(Record);
  }
  return total;
}

void worker_main(Ctx& ctx, std::uint32_t w) {
  WorkerState& ws = (*ctx.wlocals)[w];
  // Belt-and-braces unit cap on expanded items (also the R4 budget
  // discipline): the dedup-side census counter is the primary abort.
  runtime::BudgetMeter meter(runtime::BudgetSpec{ctx.opts->max_states, 0});

  bool running = true;
  while (running) {
    expand_phase(ctx, ws, w, meter);
    ctx.expanding.fetch_sub(1, std::memory_order_acq_rel);
    // Quiesce: a producer's ring pushes happen before its decrement, so
    // reading 0 FIRST and then sweeping empty rings is conclusive.
    bool quiet = false;
    bool drained_any = true;
    while (!quiet || drained_any) {
      quiet = ctx.expanding.load(std::memory_order_acquire) == 0;
      drained_any = drain_rings(ctx, ws, w);
    }
    ctx.barrier->arrive_and_wait();  // B1: all candidates routed

    for (std::uint32_t s = w; s < ctx.num_shards; s += ctx.workers) {
      dedup_shard(ctx, ws, s);
    }
    ctx.barrier->arrive_and_wait();  // B2: census settled

    if (w == 0) {
      std::uint64_t next_items = 0;
      for (const ShardState& sh : ctx.shards) {
        next_items += sh.wave.size() / ctx.stride;
      }
      ctx.peak_bytes = std::max(ctx.peak_bytes, census_bytes(ctx));
      if (ctx.arena->overflowed()) {
        ctx.aborted.store(true, std::memory_order_relaxed);
      }
      const bool aborted = ctx.aborted.load(std::memory_order_relaxed);
      const bool stop_early =
          ctx.opts->stop_at_first_violation &&
          ctx.found_violation.load(std::memory_order_relaxed);
      const bool done = aborted || stop_early || next_items == 0;
      ctx.stop.store(done, std::memory_order_relaxed);
      ctx.spill_now.store(!done && ctx.spill_enabled &&
                              spillable_bytes(ctx) > ctx.mem_limit,
                          std::memory_order_relaxed);
      if (!done) {
        ++ctx.waves;
        ctx.expanding.store(ctx.workers, std::memory_order_relaxed);
      }
    }
    ctx.barrier->arrive_and_wait();  // B3: verdict visible to everyone

    if (ctx.stop.load(std::memory_order_relaxed)) {
      running = false;
      continue;
    }
    if (ctx.spill_now.load(std::memory_order_relaxed)) {
      for (std::uint32_t s = w; s < ctx.num_shards; s += ctx.workers) {
        spill_shard(ctx, ws, s);
      }
    }
  }
}

}  // namespace

FrontierExploreResult frontier_explore(const SimConfig& config,
                                       const MachineFactory& factory,
                                       const std::vector<std::uint64_t>& inputs,
                                       const FrontierExploreOptions& options) {
  if (options.explore.sleep_sets) {
    throw std::invalid_argument(
        "frontier_explore: sleep-set POR is a DFS-path notion and cannot "
        "apply to a BFS wavefront; set ExploreOptions::sleep_sets = false "
        "(the visited-state census is identical — sleep sets prune "
        "transitions, never states)");
  }

  FrontierExploreResult out;
  ExploreResult& result = out.explore;
  const ExploreOptions& opts = options.explore;

  SimWorld root(config, factory, inputs);

  Ctx ctx;
  ctx.fopts = &options;
  ctx.opts = &opts;
  ctx.root = &root;
  ctx.cfg = &root.config();  // arbitrary_candidates defaulted here
  ctx.facts = root.facts();
  ctx.sym = opts.symmetry_reduction && root.processes_symmetric();
  ctx.n = root.processes();
  ctx.S = root.shared_words();
  ctx.stride = kHeaderWords + ctx.S + ctx.n;
  ctx.num_objects = ctx.cfg->num_objects;
  ctx.num_registers = ctx.cfg->num_registers;
  ctx.input_sorted = inputs;
  std::sort(ctx.input_sorted.begin(), ctx.input_sorted.end());
  ctx.input_sorted.erase(
      std::unique(ctx.input_sorted.begin(), ctx.input_sorted.end()),
      ctx.input_sorted.end());
  for (const model::Value v : ctx.cfg->arbitrary_candidates) {
    ctx.cand_raws.push_back(v.raw());
  }

  std::uint32_t workers = options.num_threads != 0
                              ? options.num_threads
                              : std::thread::hardware_concurrency();
  // Owner-computes workers spin at barriers and on handoff rings —
  // oversubscribing cores turns every spin into a lost timeslice, so the
  // request is capped at the machine's parallelism (shard ownership
  // rebalances automatically: owner = shard % workers).
  const std::uint32_t hw =
      std::max<std::uint32_t>(1, std::thread::hardware_concurrency());
  workers = std::min(std::max<std::uint32_t>(1, workers), hw);
  const std::uint32_t shards = std::bit_ceil(std::max<std::uint32_t>(
      1, options.shard_count != 0 ? options.shard_count
                                  : std::max<std::uint32_t>(64, workers)));
  ctx.num_shards = shards;
  ctx.shard_bits = static_cast<std::uint32_t>(std::countr_zero(shards));
  ctx.shard_mask = shards - 1;
  ctx.workers = std::min(workers, shards);

  ctx.spill_dir = options.spill_dir;
  ctx.mem_limit = options.mem_limit_bytes;
  ctx.spill_enabled = !ctx.spill_dir.empty() && ctx.mem_limit != 0;
  if (ctx.spill_enabled) {
    std::error_code ec;
    std::filesystem::create_directories(ctx.spill_dir, ec);
    if (ec) ctx.spill_enabled = false;
  }
  ctx.direct = !ctx.spill_enabled;

  LaneArena arena(factory);
  ctx.arena = &arena;
  ctx.shards = std::vector<ShardState>(ctx.num_shards);
  const std::size_t per_shard_hint = std::max<std::size_t>(
      16, detail::table_hint(opts) / ctx.num_shards);
  for (ShardState& sh : ctx.shards) sh.table = FlatFpMap(per_shard_hint);
  ctx.mesh = std::make_unique<util::HandoffMesh>(ctx.workers, ctx.stride,
                                                 kRingRecords);
  ctx.barrier = std::make_unique<util::SpinBarrier>(ctx.workers);

  std::vector<WorkerState> wlocals(ctx.workers);
  for (WorkerState& ws : wlocals) {
    ws.child_item.resize(ctx.stride, 0);
    ws.shared_scratch.resize(ctx.S, 0);
    ws.ring_tmp.resize(ctx.stride, 0);
  }
  ctx.wlocals = &wlocals;

  // Root item, seeded as the sole wave-0 candidate of its shard: direct
  // mode admits it here, spill mode interns it in the first dedup pass
  // (terminal roots included — no special case); either way wave 0
  // expands nothing and the first barrier round promotes it.
  {
    std::vector<std::uint64_t> item(ctx.stride, 0);
    std::vector<std::uint64_t> shared;
    root.encode_shared(shared);
    assert(shared.size() == ctx.S);
    std::copy(shared.begin(), shared.end(), item.begin() + kHeaderWords);
    for (std::uint32_t pid = 0; pid < ctx.n; ++pid) {
      item[kHeaderWords + ctx.S + pid] = pack_pid_word(
          arena.root_lane(pid, inputs[pid]), root.crashes_used(pid),
          root.killed(pid));
    }
    item[kItParent] = std::uint64_t{kNoParent} |
                      (std::uint64_t{kNoSlot} << 40);
    item[kItChoice] = 0;
    item[kItDepth] = 0;
    WorkerState& ws0 = wlocals[0];
    assemble_enc(ctx, item.data(), ws0.child_enc);
    assert(ws0.child_enc.words == root.encode() &&
           "item encoding must mirror SimWorld::encode()");
    const Fingerprint root_fp = fingerprint_state(ws0.child_enc, ctx.sym);
    item[kItFpA] = root_fp.a;
    item[kItFpB] = root_fp.b;
    item[kItParA] = root_fp.a;  // unused (parent_id is kNoParent)
    item[kItParB] = root_fp.b;
    const std::uint32_t root_shard = ctx.shard_of(root_fp);
    ShardState& sh = ctx.shards[root_shard];
    if (ctx.direct) {
      admit_item(ctx, ws0, root_shard, item.data(), sh.table.find(root_fp),
                 sh.cand);
    } else {
      sh.cand.insert(sh.cand.end(), item.begin(), item.end());
    }
  }

  ctx.expanding.store(ctx.workers, std::memory_order_relaxed);
  {
    std::vector<std::thread> threads;
    threads.reserve(ctx.workers - 1);
    for (std::uint32_t wid = 1; wid < ctx.workers; ++wid) {
      threads.emplace_back([&ctx, wid] { worker_main(ctx, wid); });
    }
    worker_main(ctx, 0);
    for (auto& t : threads) t.join();
  }

  const bool aborted = ctx.aborted.load(std::memory_order_relaxed);
  result.states_visited = ctx.states.load(std::memory_order_relaxed);
  for (const WorkerState& ws : wlocals) {
    result.terminal_states += ws.terminal_states;
    result.violations_found += ws.violations_found;
    result.max_depth = std::max(result.max_depth, ws.max_depth);
    for (const auto& [kind, count] : ws.by_kind) {
      result.violations_by_kind[kind] += count;
    }
    result.agreed_values.insert(ws.agreed_values.begin(),
                                ws.agreed_values.end());
    result.immunity_checks += ws.immunity_checks;
    result.immunity_skips += ws.immunity_skips;
    out.stats.forwarded += ws.forwarded;
    out.stats.memo_hits += ws.memo_hits;
    out.stats.spill_runs += ws.spill_runs;
    out.stats.spilled_records += ws.spilled_records;
    out.stats.spill_bytes += ws.spill_bytes;
  }
  for (ShardState& sh : ctx.shards) {
    result.table_grows += sh.grows + sh.table.grows();
  }

  if (ctx.best) result.violation = build_witness(ctx, *ctx.best);

  const bool stopped_early =
      opts.stop_at_first_violation &&
      ctx.found_violation.load(std::memory_order_relaxed);
  if (!aborted && !stopped_early) {
    std::vector<std::uint32_t> shard_sizes;
    for (const ShardState& sh : ctx.shards) shard_sizes.push_back(sh.next_seq);
    std::vector<std::span<const CycleEdge>> edge_lists;
    for (const WorkerState& ws : wlocals) edge_lists.emplace_back(ws.edges);
    add_nontermination(
        scan_cycles(shard_sizes, ctx.shard_bits, edge_lists), *ctx.root,
        ctx.sym, opts,
        [&ctx](std::uint32_t u, SimWorld* at_u) {
          const ShardState& sh = ctx.shards[u & ctx.shard_mask];
          return path_to(ctx, sh.fp_by_seq[u >> ctx.shard_bits], at_u);
        },
        result);
  }

  result.complete =
      !aborted && !(opts.stop_at_first_violation && result.violations_found > 0);
  result.peak_bytes = std::max(ctx.peak_bytes, census_bytes(ctx));

  out.stats.waves = ctx.waves;
  out.stats.memo_hits += arena.memo_hits();
  out.stats.batch_sweeps = arena.resolve_calls();
  out.stats.batched_lanes = arena.stepped();
  out.stats.arena_lanes = arena.lanes();
  return out;
}

}  // namespace ff::sched
