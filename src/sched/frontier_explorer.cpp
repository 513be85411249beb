// Owner-computes frontier explorer — engine internals.
//
// Data flow per BFS wave (see frontier_explorer.hpp for the contract):
//
//   expand:  each worker walks the wave items of the shards it OWNS and
//            steps each item's compact state through LaneSpace
//            (sched/lane_space.hpp: shared raws + hash-consed machine
//            lanes, the same kernel the sequential DFS runs on) — no
//            SimWorld copies on the hot path.  Successor items are
//            routed: own shard → censused on the spot, foreign shard →
//            SPSC ring to the owner, which censuses the item when it
//            drains the ring.  Censusing probes the shard's private
//            FlatFpMap — single writer, no locks; a novel terminal is
//            judged there, a novel non-terminal joins the next wave.
//   quiesce: expansion counter + ring drain (a producer's pushes happen
//            before its counter decrement, so one empty sweep after the
//            counter hits zero is conclusive).
//   account: worker 0 sums the next wave, takes the peak-memory census
//            and decides stop for everyone (spin barriers carry the
//            happens-before edges).
//   flip:    each owner swaps its shards' censused items into the wave.
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
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
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

/// Parent id of the root.
constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
/// Table value bit: the state is terminal.
constexpr std::uint32_t kTerminalFlag = 0x80000000u;
/// Ids are 31-bit, which frees the top bit of CycleEdge::from.
constexpr std::uint64_t kIdSpace = 0x7FFFFFFEull;

/// Items expanded between drains of the worker's inbound rings.
constexpr std::size_t kExpandBlock = 64;
/// Items per SPSC ring (per producer/consumer pair).
constexpr std::size_t kRingItems = 512;

[[nodiscard]] bool fp_less(const Fingerprint& x, const Fingerprint& y) {
  return x.a < y.a || (x.a == y.a && x.b < y.b);
}

// ---------------------------------------------------------------------------
// Wave items.
//
// One candidate/wave state is a flat block of `stride` words:
//   [0] fp.a          [1] fp.b
//   [2] parent_id | own_id << 32 | adversary << 63
//                     (own_id written on accept; the adversary bit marks
//                     a candidate an adversary step produced)
//   [3 .. 3+S+n)      the compact state LaneSpace steps (lane_space.hpp)
// A state's depth is the wave that admits it (Ctx::waves); which choice
// discovered it is re-derived only for a witness (cycle_scan.hpp).
// ---------------------------------------------------------------------------

constexpr std::size_t kHeaderWords = 3;
constexpr std::size_t kItFpA = 0, kItFpB = 1, kItIds = 2;
constexpr std::uint64_t kItAdversary = std::uint64_t{1} << 63;

// ---------------------------------------------------------------------------
// Shards, per-worker state, shared context.
// ---------------------------------------------------------------------------

struct alignas(64) ShardState {
  /// fp → seq | kTerminalFlag of every admitted state.
  FlatFpMap table{16};
  /// The discovering parent's id, indexed by seq (kNoParent for the
  /// root): witnesses walk it back to the root.
  std::vector<std::uint32_t> parent;
  std::vector<std::uint64_t> wave;  ///< items to expand this wave
  /// Censused next-wave items, flipped into wave at the boundary.
  std::vector<std::uint64_t> cand;
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

  // Memo caches in front of the shared arena, and the worker's tallies.
  LaneCache cache;

  // Expansion scratch.
  /// Per-pid block hashes + multiset sums of the current parent (sym
  /// only): the child fingerprint is the shared fold plus these sums
  /// with the stepped block's hash swapped.
  std::vector<Fingerprint> parent_block_hash;
  std::uint64_t parent_sum_a = 0;
  std::uint64_t parent_sum_b = 0;
  std::vector<Choice> choices;
  std::vector<std::uint64_t> child_item;
  std::vector<std::uint64_t> ring_tmp;
};

struct BestViolation {
  std::uint32_t depth;
  Fingerprint fp;
  ViolationKind kind;
  std::uint32_t id;
};

struct Ctx {
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
  std::vector<ShardState> shards;
  std::unique_ptr<util::HandoffMesh> mesh;
  std::unique_ptr<util::SpinBarrier> barrier;
  std::vector<WorkerState>* wlocals = nullptr;

  // Checker-internal coordination state — the engine runs outside the
  // traced object layer by construction.
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

  // Worker-0-only writes, between barriers B1 and B2: every other read
  // (admission reads `waves` as the depth it admits at) falls between
  // B2 and the next B1, or after the join.
  std::uint64_t waves = 0;
  std::uint64_t peak_bytes = 0;

  std::mutex violation_mu;
  std::optional<BestViolation> best;

  /// The first exception a worker's step threw, rethrown by
  /// frontier_explore on the calling thread after the join.  Guarded by
  /// `error_mu`.
  std::mutex error_mu;
  std::exception_ptr error;

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
void admit_item(Ctx& ctx, WorkerState& ws, std::uint32_t shard_idx,
                std::uint64_t* item);

/// Fingerprints the successor ws.child_item holds, fills its header and
/// routes it: own shard → admitted into the census immediately, foreign
/// shard → its owner's ring (draining our own inbox while the ring is
/// full, so mutual-full rings cannot deadlock).
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
  // Start the census probe's cache fill while the header words are
  // written — admit_item's find lands on a warm line.
  if (owner == w) ctx.shards[shard].table.prefetch(fp);
  c[kItFpA] = fp.a;
  c[kItFpB] = fp.b;
  // The parent's own id, and whether an adversary took the step.
  c[kItIds] = (item[kItIds] >> 32) |
              (choice.pid == kAdversaryPid ? kItAdversary : 0);
  if (owner == w) {
    admit_item(ctx, ws, shard, c);
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
    } catch (...) {
      // A step that throws (an access outside the layout, say) must not
      // escape a worker thread: keep the first exception for the caller
      // and end the run the way the state cap does.
      {
        std::lock_guard<std::mutex> g(ctx.error_mu);
        if (!ctx.error) ctx.error = std::current_exception();
      }
      ctx.aborted.store(true, std::memory_order_relaxed);
      return;
    }
    finalize_child(ctx, ws, w, item, choice);
  }
}

/// Pops every inbound ring into the owned shards' census.
bool drain_rings(Ctx& ctx, WorkerState& ws, std::uint32_t w) {
  bool any = false;
  for (std::uint32_t p = 0; p < ctx.workers; ++p) {
    util::SpscWordRing& ring = ctx.mesh->ring(p, w);
    while (ring.try_pop(ws.ring_tmp.data())) {
      any = true;
      const Fingerprint fp{ws.ring_tmp[kItFpA], ws.ring_tmp[kItFpB]};
      admit_item(ctx, ws, ctx.shard_of(fp), ws.ring_tmp.data());
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
// Census.
// ---------------------------------------------------------------------------

void offer_violation(Ctx& ctx, std::uint32_t depth, const Fingerprint& fp,
                     ViolationKind kind, std::uint32_t id) {
  std::lock_guard<std::mutex> g(ctx.violation_mu);
  if (!ctx.best || depth < ctx.best->depth ||
      (depth == ctx.best->depth && fp_less(fp, ctx.best->fp))) {
    ctx.best = BestViolation{depth, fp, kind, id};
  }
  ctx.found_violation.store(true, std::memory_order_relaxed);
}

/// Census admission of one owner-routed candidate: probe the shard's
/// table; duplicate → record the transition edge; novel → intern the
/// fingerprint, assign the dense id, store the parent id, and either run
/// the terminal verdict or append the item to the shard's `cand`.
/// Single-writer: only the shard's owner may call this.  The successors
/// of wave d-1 are admitted while waves == d, which is the depth the
/// census records and the BFS depth-minimality guarantee rests on.
void admit_item(Ctx& ctx, WorkerState& ws, std::uint32_t shard_idx,
                std::uint64_t* item) {
  ShardState& sh = ctx.shards[shard_idx];
  const Fingerprint fp{item[kItFpA], item[kItFpB]};
  const std::uint32_t existing = sh.table.find(fp);
  const auto parent_id = static_cast<std::uint32_t>(item[kItIds]);
  // The edge's source: the parent, flagged when an adversary stepped.
  const std::uint32_t from =
      parent_id | ((item[kItIds] & kItAdversary) != 0 ? CycleEdge::kAdversary
                                                       : 0);

  if (existing != FlatFpMap::kNoValue) {
    // Duplicate: record the transition edge (non-terminal targets
    // only — terminal states cannot sit on a cycle).
    if ((existing & kTerminalFlag) == 0 && parent_id != kNoParent) {
      const std::uint32_t to =
          ((existing & ~kTerminalFlag) << ctx.shard_bits) | shard_idx;
      ws.edges.push_back(CycleEdge{from, to});
    }
    return;
  }

  // Novel state.
  const bool terminal = ctx.space->terminal(item + kHeaderWords);
  const auto seq = static_cast<std::uint32_t>(sh.parent.size());
  if ((std::uint64_t{seq} << ctx.shard_bits) > kIdSpace) {
    ctx.aborted.store(true, std::memory_order_relaxed);
    return;
  }
  std::uint32_t value = seq;
  if (terminal) value |= kTerminalFlag;
  sh.table.insert_or_get(fp, value);
  sh.parent.push_back(parent_id);
  const std::uint32_t id = (seq << ctx.shard_bits) | shard_idx;
  item[kItIds] = std::uint64_t{parent_id} | (std::uint64_t{id} << 32);

  const std::uint64_t nstates =
      ctx.states.fetch_add(1, std::memory_order_relaxed) + 1;
  if ((ctx.opts->max_states != 0 && nstates > ctx.opts->max_states) ||
      nstates > kIdSpace) {
    ctx.aborted.store(true, std::memory_order_relaxed);
    return;
  }
  const auto depth = static_cast<std::uint32_t>(ctx.waves);
  ws.max_depth = std::max<std::uint64_t>(ws.max_depth, depth);

  if (!terminal && parent_id != kNoParent) {
    ws.edges.push_back(CycleEdge{from, id});
  }

  if (terminal) {
    ++ws.terminal_states;
    const TerminalVerdict v = ctx.space->verdict(item + kHeaderWords);
    if (v.kind) {
      ++ws.violations_found;
      ++ws.by_kind[*v.kind];
      offer_violation(ctx, depth, fp, *v.kind, id);
    } else if (v.agreed) {
      ws.agreed_values.insert(*v.agreed);
    }
  } else {
    sh.cand.insert(sh.cand.end(), item, item + ctx.stride);
  }
}

// ---------------------------------------------------------------------------
// Witnesses, re-derived after the join (cycle_scan.hpp: rederive).
// ---------------------------------------------------------------------------

/// The id of the censused state with fingerprint `fp` (kNoParent when
/// there is none), looked up in its shard's table.
[[nodiscard]] std::uint32_t id_of(const Ctx& ctx, const Fingerprint& fp) {
  const std::uint32_t shard = ctx.shard_of(fp);
  const std::uint32_t value = ctx.shards[shard].table.find(fp);
  if (value == FlatFpMap::kNoValue) return kNoParent;
  return ((value & ~kTerminalFlag) << ctx.shard_bits) | shard;
}

/// The root → `id` schedule: walks the parent ids back to the root (each
/// hop is one BFS level up, so the walk is bounded by the state's
/// depth), then re-derives each hop's choice from the root.  The replay
/// reproduces the discovering choice at every hop: a parent's children
/// reach their owner in choice order (locally, or through one FIFO
/// ring), so the first choice that reaches a child's fingerprint is the
/// one that admitted it, and by induction from the root the replay holds
/// the discoverer's exact state.
[[nodiscard]] std::vector<Choice> path_to(const Ctx& ctx, std::uint32_t id,
                                          SimWorld* world_out) {
  const auto parent_of = [&ctx](std::uint32_t v) {
    return ctx.shards[v & ctx.shard_mask].parent[v >> ctx.shard_bits];
  };
  std::vector<CycleEdge> hops;
  for (std::uint32_t v = id; parent_of(v) != kNoParent; v = parent_of(v)) {
    hops.push_back(CycleEdge{parent_of(v), v});
  }
  std::reverse(hops.begin(), hops.end());
  SimWorld world = *ctx.root;
  std::vector<Choice> out =
      rederive(world, hops, /*match_kind=*/false, ctx.sym,
               [&ctx](const Fingerprint& fp) { return id_of(ctx, fp); });
  if (world_out != nullptr) *world_out = std::move(world);
  return out;
}

[[nodiscard]] Violation build_witness(const Ctx& ctx,
                                      const BestViolation& best) {
  SimWorld world = *ctx.root;
  std::vector<Choice> schedule = path_to(ctx, best.id, &world);
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
    total += sh.table.capacity() * 24 + sh.parent.capacity() * 4;
    total += (sh.wave.capacity() + sh.cand.capacity()) * 8;
  }
  for (const WorkerState& wsx : *ctx.wlocals) {
    total += wsx.edges.capacity() * sizeof(CycleEdge);
    total += wsx.cache.memo_bytes();
  }
  return total;
}

void worker_main(Ctx& ctx, std::uint32_t w) {
  WorkerState& ws = (*ctx.wlocals)[w];
  // Belt-and-braces unit cap on expanded items (also the R4 budget
  // discipline): the admission-side census counter is the primary abort.
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
    ctx.barrier->arrive_and_wait();  // B1: every successor censused

    if (w == 0) {
      std::uint64_t next_items = 0;
      for (const ShardState& sh : ctx.shards) {
        next_items += sh.cand.size() / ctx.stride;
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
      if (!done) {
        ++ctx.waves;
        ctx.expanding.store(ctx.workers, std::memory_order_relaxed);
      }
    }
    ctx.barrier->arrive_and_wait();  // B2: verdict visible to everyone

    if (ctx.stop.load(std::memory_order_relaxed)) {
      running = false;
      continue;
    }
    // Flip each owned shard's censused items into the next wave.
    for (std::uint32_t s = w; s < ctx.num_shards; s += ctx.workers) {
      ShardState& sh = ctx.shards[s];
      sh.wave.clear();
      sh.wave.swap(sh.cand);
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
  // At least as many shards as workers keeps every worker busy.
  const std::uint32_t shards =
      std::bit_ceil(std::max<std::uint32_t>(64, workers));
  ctx.num_shards = shards;
  ctx.shard_bits = static_cast<std::uint32_t>(std::countr_zero(shards));
  ctx.shard_mask = shards - 1;
  ctx.workers = workers;

  ctx.shards = std::vector<ShardState>(ctx.num_shards);
  const std::size_t per_shard_hint = std::max<std::size_t>(
      16, detail::table_hint(opts) / ctx.num_shards);
  for (ShardState& sh : ctx.shards) sh.table = FlatFpMap(per_shard_hint);
  ctx.mesh = std::make_unique<util::HandoffMesh>(ctx.workers, ctx.stride,
                                                 kRingItems);
  ctx.barrier = std::make_unique<util::SpinBarrier>(ctx.workers);

  std::vector<WorkerState> wlocals(ctx.workers);
  for (WorkerState& ws : wlocals) {
    ws.child_item.resize(ctx.stride, 0);
    ws.ring_tmp.resize(ctx.stride, 0);
  }
  ctx.wlocals = &wlocals;

  // Root item, admitted here as the sole wave-0 candidate of its shard
  // (terminal roots included — no special case): wave 0 expands nothing
  // and the first barrier round promotes it.
  {
    std::vector<std::uint64_t> item(ctx.stride, 0);
    space.state_of(root, item.data() + kHeaderWords);
    item[kItIds] = kNoParent;
    WorkerState& ws0 = wlocals[0];
    const Fingerprint root_fp =
        space.fingerprint(item.data() + kHeaderWords, ws0.cache);
    item[kItFpA] = root_fp.a;
    item[kItFpB] = root_fp.b;
    admit_item(ctx, ws0, ctx.shard_of(root_fp), item.data());
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
  if (ctx.error) std::rethrow_exception(ctx.error);

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
  }
  for (const ShardState& sh : ctx.shards) {
    result.table_grows += sh.table.grows();
  }

  if (ctx.best) result.violation = build_witness(ctx, *ctx.best);

  const bool stopped_early =
      opts.stop_at_first_violation &&
      ctx.found_violation.load(std::memory_order_relaxed);
  if (!aborted && !stopped_early) {
    std::vector<std::uint32_t> shard_sizes;
    for (const ShardState& sh : ctx.shards) {
      shard_sizes.push_back(static_cast<std::uint32_t>(sh.parent.size()));
    }
    std::vector<std::span<const CycleEdge>> edge_lists;
    for (const WorkerState& ws : wlocals) edge_lists.emplace_back(ws.edges);
    const CycleScanResult scan =
        scan_cycles(shard_sizes, ctx.shard_bits, edge_lists);
    // Every state peeled: no cycle, and the peel's rounds are the
    // wait-free bound (cycle_scan.hpp).
    if (opts.wait_free_bound && scan.peeled == result.states_visited) {
      result.wait_free_bound = root.terminal() ? 0 : scan.peel_rounds;
    }
    add_nontermination(
        scan, *ctx.root, ctx.sym, opts,
        [&ctx](std::uint32_t u, SimWorld* at_u) {
          return path_to(ctx, u, at_u);
        },
        [&ctx](const Fingerprint& fp) { return id_of(ctx, fp); }, result);
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
