// Owner-computes frontier explorer — engine internals.
//
// Data flow per BFS wave (see frontier_explorer.hpp for the contract):
//
//   expand:  each worker walks the wave items of the shards it OWNS and
//            steps each item's compact state through LaneSpace
//            (sched/lane_space.hpp: shared raws + hash-consed machine
//            lanes, the same kernel the sequential DFS runs on) — no
//            SimWorld copies on the hot path.  Successor items are
//            routed: own shard → local candidate buffer, foreign shard →
//            SPSC ring.
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
// Machine stepping is memoized per (lane, returned-word) transition in
// a worker-private LaneCache in front of the shared LaneArena.  The memo
// answers over 99% of steps on the reference proofs; a miss is stepped
// on the spot on a clone() of the lane's StepMachine under the arena
// lock, so the engine needs only the StepMachine interface.
#include "sched/frontier_explorer.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
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
#include "sched/lane_space.hpp"
#include "sched/reduce.hpp"
#include "util/handoff.hpp"
#include "util/spin_barrier.hpp"

namespace ff::sched {

namespace {

using detail::Fingerprint;
using detail::FlatFpMap;

constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
constexpr std::uint32_t kTerminalFlag = 0x80000000u;
constexpr std::uint64_t kIdSpace = 0x7FFFFFFEull;
constexpr std::uint8_t kNoSlot = CycleEdge::kNoSlot;

/// Choice encoding shared by items, records and edges.
constexpr std::uint8_t kChoiceFault = CycleEdge::kFault;
constexpr std::uint8_t kChoiceCrash = CycleEdge::kCrash;
/// Record-only: the state behind this record is terminal.
constexpr std::uint8_t kRecTerminal = 4;

/// Items expanded between drains of the worker's inbound rings.
constexpr std::size_t kExpandBlock = 64;
/// Records per SPSC ring (per producer/consumer pair).
constexpr std::size_t kRingRecords = 512;
/// Records per spill-run read buffer during merge-join / binary search.
constexpr std::size_t kRunBuf = 1024;

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
//   [7 .. 7+S+n)      the compact state LaneSpace steps (lane_space.hpp)
// ---------------------------------------------------------------------------

constexpr std::size_t kHeaderWords = 7;
constexpr std::size_t kItFpA = 0, kItFpB = 1, kItParA = 2, kItParB = 3;
constexpr std::size_t kItChoice = 4, kItParent = 5, kItDepth = 6;

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

struct WorkerState {
  // Census accumulators, merged after the join.
  std::uint64_t terminal_states = 0;
  std::uint64_t violations_found = 0;
  std::uint64_t max_depth = 0;
  std::map<ViolationKind, std::uint64_t> by_kind;
  std::set<std::uint64_t> agreed_values;
  std::vector<CycleEdge> edges;  ///< for the post-join cycle scan
  std::uint64_t forwarded = 0;
  std::uint64_t spill_runs = 0;
  std::uint64_t spilled_records = 0;
  std::uint64_t spill_bytes = 0;

  // Memo caches in front of the shared arena, and the worker's tallies.
  LaneCache cache;

  // Expansion scratch.
  EncodedState parent_enc;  ///< sym only: for the canonical slots
  /// Per-pid block hashes + multiset sums of the current parent (sym
  /// only): the child fingerprint is the shared fold plus these sums
  /// with the stepped block's hash swapped.
  std::vector<Fingerprint> parent_block_hash;
  std::uint64_t parent_sum_a = 0;
  std::uint64_t parent_sum_b = 0;
  std::vector<std::uint32_t> slot_of;
  std::vector<Choice> choices;
  std::vector<std::uint64_t> child_item;
  std::vector<std::uint64_t> ring_tmp;

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
  LaneArena* arena = nullptr;
  const LaneSpace* space = nullptr;
  bool sym = false;
  std::uint32_t S = 0;  ///< shared words
  std::uint32_t n = 0;  ///< processes
  std::size_t stride = 0;
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
// Expansion.
// ---------------------------------------------------------------------------

bool drain_rings(Ctx& ctx, WorkerState& ws, std::uint32_t w);
std::uint32_t admit_item(Ctx& ctx, WorkerState& ws, std::uint32_t shard_idx,
                         std::uint64_t* item, std::uint32_t existing,
                         std::vector<std::uint64_t>& next_wave);

/// Fingerprints the successor ws.child_item holds, fills its header and
/// routes it: own shard → admitted into the census immediately (direct
/// mode) or staged in the candidate buffer (spill mode), foreign shard →
/// its owner's ring (draining our own inbox while the ring is full, so
/// mutual-full rings cannot deadlock).
void finalize_child(Ctx& ctx, WorkerState& ws, std::uint32_t w,
                    const std::uint64_t* item, const Choice& choice) {
  std::uint64_t* c = ws.child_item.data();
  const std::uint64_t* state = c + kHeaderWords;
  Fingerprint fp;
  if (ctx.sym) {
    // Incremental canonical fingerprint: fold the child's shared words
    // and swap the stepped pid's block hash in the parent's multiset
    // sums — no child encoding is materialized at all.
    std::uint64_t sum_a = ws.parent_sum_a;
    std::uint64_t sum_b = ws.parent_sum_b;
    if (choice.pid != kAdversaryPid) {
      const Fingerprint h =
          ctx.space->block_hash(state[ctx.S + choice.pid], ws.cache);
      sum_a += h.a - ws.parent_block_hash[choice.pid].a;
      sum_b += h.b - ws.parent_block_hash[choice.pid].b;
    }
    fp = fingerprint_shared_sum(state, ctx.S, sum_a, sum_b);
  } else {
    fp = ctx.space->fingerprint(state, ws.cache);
  }
  const std::uint32_t shard = ctx.shard_of(fp);
  const std::uint32_t owner = ctx.owner_of(shard);
  // Start the dedup probe's cache fill while the header words are
  // written — admit_item's find lands on a warm line.
  if (ctx.direct && owner == w) ctx.shards[shard].table.prefetch(fp);
  const std::uint8_t flags = (choice.fault ? kChoiceFault : 0) |
                             (choice.crash ? kChoiceCrash : 0);
  const std::uint8_t slot =
      ctx.sym && choice.pid != kAdversaryPid
          ? static_cast<std::uint8_t>(ws.slot_of[choice.pid])
          : kNoSlot;
  c[kItFpA] = fp.a;
  c[kItFpB] = fp.b;
  c[kItParA] = item[kItFpA];
  c[kItParB] = item[kItFpB];
  c[kItChoice] =
      std::uint64_t{choice.pid} | (std::uint64_t{choice.fault_variant} << 32);
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

/// Steps every enabled Choice of the item through the lane space.
void expand_item(Ctx& ctx, WorkerState& ws, std::uint32_t w,
                 const std::uint64_t* item) {
  const std::uint64_t* state = item + kHeaderWords;
  if (ctx.sym) {
    ctx.space->encode(state, ws.parent_enc);
    canonical_slots(ws.parent_enc, ws.slot_of);
    ws.parent_block_hash.resize(ctx.n);
    ws.parent_sum_a = 0;
    ws.parent_sum_b = 0;
    for (std::uint32_t p = 0; p < ctx.n; ++p) {
      const Fingerprint h = ctx.space->block_hash(state[ctx.S + p], ws.cache);
      ws.parent_block_hash[p] = h;
      ws.parent_sum_a += h.a;
      ws.parent_sum_b += h.b;
    }
  }
  ctx.space->enabled(state, ws.choices, ws.cache);
  for (const Choice& choice : ws.choices) {
    try {
      ctx.space->apply(state, choice, ws.child_item.data() + kHeaderWords,
                       ws.cache);
    } catch (const std::out_of_range&) {
      // An access outside the layout: SimWorld throws here, and a worker
      // thread cannot, so the run ends incomplete instead.
      ctx.aborted.store(true, std::memory_order_relaxed);
      return;
    }
    finalize_child(ctx, ws, w, item, choice);
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
  std::size_t since_drain = 0;
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
      if (++since_drain >= kExpandBlock) {
        (void)drain_rings(ctx, ws, w);
        since_drain = 0;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Deduplication and census.
// ---------------------------------------------------------------------------

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
  const bool terminal = ctx.space->terminal(item + kHeaderWords);
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
    const TerminalVerdict v = ctx.space->verdict(item + kHeaderWords);
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
    total += wsx.cache.memo_bytes();
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
  FrontierExploreResult out;
  ExploreResult& result = out.explore;
  const ExploreOptions& opts = options.explore;

  SimWorld root(config, factory, inputs);

  Ctx ctx;
  ctx.fopts = &options;
  ctx.opts = &opts;
  ctx.root = &root;
  ctx.sym = opts.symmetry_reduction && root.processes_symmetric();
  ctx.n = root.processes();
  ctx.S = root.shared_words();
  ctx.stride = kHeaderWords + ctx.S + ctx.n;
  LaneArena arena;
  const LaneSpace space(root, arena, ctx.sym, opts.killed_is_violation);
  ctx.arena = &arena;
  ctx.space = &space;

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
    ws.ring_tmp.resize(ctx.stride, 0);
  }
  ctx.wlocals = &wlocals;

  // Root item, seeded as the sole wave-0 candidate of its shard: direct
  // mode admits it here, spill mode interns it in the first dedup pass
  // (terminal roots included — no special case); either way wave 0
  // expands nothing and the first barrier round promotes it.
  {
    std::vector<std::uint64_t> item(ctx.stride, 0);
    space.state_of(root, item.data() + kHeaderWords);
    item[kItParent] = std::uint64_t{kNoParent} |
                      (std::uint64_t{kNoSlot} << 40);
    item[kItChoice] = 0;
    item[kItDepth] = 0;
    WorkerState& ws0 = wlocals[0];
    const Fingerprint root_fp =
        space.fingerprint(item.data() + kHeaderWords, ws0.cache);
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
    result.immunity_checks += ws.cache.immunity_checks;
    result.immunity_skips += ws.cache.immunity_skips;
    out.stats.forwarded += ws.forwarded;
    out.stats.memo_hits += ws.cache.memo_hits;
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

  const LaneArena::Stats lane_stats = arena.stats();
  out.stats.waves = ctx.waves;
  out.stats.memo_hits += lane_stats.memo_hits;
  // Misses are stepped one per arena call, so the two counters agree.
  out.stats.batch_sweeps = lane_stats.stepped;
  out.stats.batched_lanes = lane_stats.stepped;
  out.stats.arena_lanes = lane_stats.lanes;
  return out;
}

}  // namespace ff::sched
