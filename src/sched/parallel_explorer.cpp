#include "sched/parallel_explorer.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sched/cycle_scan.hpp"
#include "sched/explore_common.hpp"
#include "sched/reduce.hpp"

namespace ff::sched {

namespace {

using detail::Fingerprint;
using detail::FingerprintHash;
using detail::check_terminal;

/// Dense 31-bit state ids: (per-shard index << shard_bits) | shard.
/// Bit 31 of the table's mapped value flags a terminal state so workers
/// can tell, on a duplicate hit, whether the target can sit on a cycle.
constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
constexpr std::uint32_t kTerminalFlag = 0x80000000u;
constexpr std::uint64_t kIdSpace = 0x7FFFFFFEull;

/// Canonical-slot sentinel for adversary steps / the root record.
constexpr std::uint8_t kNoSlot = CycleEdge::kNoSlot;

struct StateRecord {
  std::uint32_t parent;  ///< state id of the discovering parent
  Choice choice;         ///< choice applied at the parent to reach here
  /// Canonical slot of choice.pid in the discovering parent's block
  /// order.  Under symmetry the table identifies orbits, so a later walk
  /// may hold a different representative of `parent` than the discoverer
  /// did; the slot is orbit-invariant and resolves to an equivalent
  /// choice in ANY representative (see replay_path_from_root).
  std::uint8_t slot = kNoSlot;
};

struct alignas(64) Shard {
  std::mutex mu;
  std::unordered_map<Fingerprint, std::uint32_t, FingerprintHash> table;
  std::vector<StateRecord> records;
  /// Godefroid stored sleep sets (canonical keys, sorted) for states of
  /// this shard that were inserted with a non-empty arrival sleep;
  /// absent entry = empty set.  Guarded by `mu`.
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> sleep;
};

struct WorkItem {
  SimWorld world;
  std::uint32_t id;
  std::uint32_t depth;
  /// Arrival sleep set (pid-space, valid for `world`).
  std::vector<Choice> sleep;
  /// Non-empty ⇒ re-expansion of a revisited state: explore exactly
  /// these transitions instead of enabled() \ sleep.
  std::vector<Choice> explicit_trans;
};

struct alignas(64) WorkerQueue {
  std::mutex mu;
  std::deque<WorkItem> dq;
};

/// Per-worker accumulators, merged after the join (no sharing until then).
struct WorkerLocal {
  std::uint64_t terminal_states = 0;
  std::uint64_t violations_found = 0;
  std::uint64_t max_depth = 0;
  std::map<ViolationKind, std::uint64_t> by_kind;
  std::set<std::uint64_t> agreed_values;
  std::vector<CycleEdge> edges;  ///< for the post-join cycle scan
  /// Reusable encoding scratch (workers never share these).
  StateEncoder encoder;
  EncodedState parent_enc;
  EncodedState child_enc;
  std::vector<std::uint32_t> parent_slots;
  std::vector<std::uint32_t> child_order;
  std::vector<std::uint32_t> child_slots;
  std::vector<std::uint64_t> child_keys;
  std::vector<std::uint64_t> missing_keys;
  std::vector<Footprint> footprints;
};

struct PendingViolation {
  std::uint32_t id;
  ViolationKind kind;
  std::string detail;
};

struct Ctx {
  const ExploreOptions* opts = nullptr;
  const SimWorld* root = nullptr;
  bool sym = false;
  bool por = false;
  std::uint32_t shard_bits = 0;
  std::uint32_t shard_mask = 0;
  std::uint32_t num_workers = 1;
  std::uint32_t chunk = 16;
  std::vector<Shard> shards;
  std::vector<WorkerQueue> queues;
  /// Items enqueued or being expanded; 0 ⇒ the frontier is drained.
  /// These three are checker-internal coordination state, not protocol
  /// state the checker models — the explorer runs *outside* the traced
  /// object layer by construction.
  // ff-lint: allow(R1): checker-internal work-stealing frontier counter
  std::atomic<std::int64_t> outstanding{0};
  // ff-lint: allow(R1): checker-internal state-census counter, not modeled
  std::atomic<std::uint64_t> states{0};
  // ff-lint: allow(R1): checker-internal stop flag, never protocol-visible
  std::atomic<bool> abort{false};
  std::mutex violation_mu;
  std::optional<PendingViolation> pending;

  [[nodiscard]] std::uint32_t shard_of(const Fingerprint& fp) const {
    return static_cast<std::uint32_t>(fp.a) & shard_mask;
  }
  [[nodiscard]] const StateRecord& record(std::uint32_t id) const {
    return shards[id & shard_mask].records[id >> shard_bits];
  }
};

struct InternResult {
  std::uint32_t stored = 0;
  bool inserted = false;
};

/// Inserts (or finds) the state behind `fp`.  Returns the mapped value
/// (id | terminal flag) and whether this call inserted it.  When POR is
/// active, `arrival_keys` (sorted canonical sleep keys the state is
/// reached with) is stored on insert; on a duplicate hit the Godefroid
/// state-matching update runs: `missing` receives stored \ arrival (the
/// transitions pruned under an assumption this arrival invalidates) and
/// the stored set shrinks to the intersection.
InternResult intern(Ctx& ctx, const Fingerprint& fp, bool terminal,
                    std::uint32_t parent, const Choice& choice,
                    std::uint8_t slot,
                    const std::vector<std::uint64_t>& arrival_keys,
                    std::vector<std::uint64_t>* missing) {
  const std::uint32_t shard_idx = ctx.shard_of(fp);
  Shard& shard = ctx.shards[shard_idx];
  std::lock_guard<std::mutex> g(shard.mu);
  const auto [it, inserted] = shard.table.try_emplace(fp, 0u);
  if (inserted) {
    const auto local_idx = static_cast<std::uint32_t>(shard.records.size());
    if ((std::uint64_t{local_idx} << ctx.shard_bits) > kIdSpace) {
      // Id space exhausted (≥ 2^31 states in one shard's stripe) — abort
      // as an incomplete run rather than corrupt ids.
      ctx.abort.store(true, std::memory_order_relaxed);
    }
    std::uint32_t stored = (local_idx << ctx.shard_bits) | shard_idx;
    if (terminal) stored |= kTerminalFlag;
    shard.records.push_back(StateRecord{parent, choice, slot});
    if (ctx.por && !arrival_keys.empty()) {
      shard.sleep.emplace(local_idx, arrival_keys);
    }
    it->second = stored;
    return {stored, true};
  }
  if (ctx.por && missing != nullptr) {
    missing->clear();
    const std::uint32_t local_idx = (it->second & ~kTerminalFlag) >>
                                    ctx.shard_bits;
    const auto sit = shard.sleep.find(local_idx);
    if (sit != shard.sleep.end()) {
      std::set_difference(sit->second.begin(), sit->second.end(),
                          arrival_keys.begin(), arrival_keys.end(),
                          std::back_inserter(*missing));
      if (!missing->empty()) {
        std::vector<std::uint64_t> inter;
        std::set_intersection(sit->second.begin(), sit->second.end(),
                              arrival_keys.begin(), arrival_keys.end(),
                              std::back_inserter(inter));
        if (inter.empty()) {
          shard.sleep.erase(sit);
        } else {
          sit->second = std::move(inter);
        }
      }
    }
  }
  return {it->second, false};
}

void enqueue(Ctx& ctx, std::uint32_t wid, WorkItem&& item) {
  ctx.outstanding.fetch_add(1, std::memory_order_acq_rel);
  WorkerQueue& self = ctx.queues[wid];
  std::lock_guard<std::mutex> g(self.mu);
  self.dq.push_back(std::move(item));
}

void expand(Ctx& ctx, std::uint32_t wid, WorkItem& item, WorkerLocal& local) {
  // Transition list: enabled() minus the arrival sleep, or — for a
  // re-expansion of a revisited state — exactly the stored-minus-arrival
  // transitions the original visit pruned.
  std::vector<Choice> trans;
  if (!item.explicit_trans.empty()) {
    trans = std::move(item.explicit_trans);
  } else {
    for (const Choice& c : item.world.enabled()) {
      if (ctx.por && std::find(item.sleep.begin(), item.sleep.end(), c) !=
                         item.sleep.end()) {
        continue;  // asleep: an equivalent interleaving is explored
      }
      trans.push_back(c);
    }
  }

  // Footprints (at item.world) of the arrival sleep and the transition
  // list, for the child-sleep computation.
  if (ctx.por) {
    local.footprints.clear();
    for (const Choice& s : item.sleep) {
      local.footprints.push_back(footprint_of(item.world, s));
    }
    for (const Choice& c : trans) {
      local.footprints.push_back(footprint_of(item.world, c));
    }
  }
  // Canonical slots of the parent representative, for record/edge slots.
  if (ctx.sym) {
    local.encoder.encode(item.world, local.parent_enc);
    canonical_slots(local.parent_enc, local.parent_slots);
  }
  const auto slot_of = [&](const Choice& c) -> std::uint8_t {
    if (!ctx.sym || c.pid == kAdversaryPid) return kNoSlot;
    return static_cast<std::uint8_t>(local.parent_slots[c.pid]);
  };

  std::vector<Choice> child_sleep;
  const std::vector<std::uint32_t> kIdentity;
  for (std::size_t ti = 0; ti < trans.size(); ++ti) {
    if (ctx.abort.load(std::memory_order_relaxed)) return;
    const Choice& choice = trans[ti];
    SimWorld child = item.world;
    child.apply(choice);
    local.encoder.encode(child, local.child_enc);
    const Fingerprint fp = fingerprint_state(local.child_enc, ctx.sym);
    const bool child_terminal = child.terminal();
    local.max_depth =
        std::max<std::uint64_t>(local.max_depth, item.depth + 1ull);

    // Sleep set the child arrives with (Godefroid): still-independent
    // members of the arrival sleep plus earlier-explored transitions
    // independent of the chosen step — with canonical keys so stored
    // sets compare across orbit representatives.
    child_sleep.clear();
    local.child_keys.clear();
    if (ctx.por) {
      const Footprint fc = local.footprints[item.sleep.size() + ti];
      for (std::size_t i = 0; i < item.sleep.size(); ++i) {
        if (independent(item.sleep[i], local.footprints[i], choice, fc)) {
          child_sleep.push_back(item.sleep[i]);
        }
      }
      for (std::size_t j = 0; j < ti; ++j) {
        if (independent(trans[j], local.footprints[item.sleep.size() + j],
                        choice, fc)) {
          child_sleep.push_back(trans[j]);
        }
      }
      if (!child_sleep.empty()) {
        local.child_slots.clear();
        if (ctx.sym) canonical_slots(local.child_enc, local.child_slots);
        for (const Choice& s : child_sleep) {
          local.child_keys.push_back(
              sleep_key(s, ctx.sym ? local.child_slots : kIdentity));
        }
        std::sort(local.child_keys.begin(), local.child_keys.end());
      }
    }

    const InternResult in =
        intern(ctx, fp, child_terminal, item.id, choice, slot_of(choice),
               local.child_keys, ctx.por ? &local.missing_keys : nullptr);
    const bool target_terminal = (in.stored & kTerminalFlag) != 0;
    const std::uint32_t child_id = in.stored & ~kTerminalFlag;

    if (!target_terminal) {
      local.edges.push_back(
          CycleEdge::of(item.id, child_id, choice, slot_of(choice)));
    }
    if (!in.inserted) {
      if (ctx.por && !local.missing_keys.empty() && !target_terminal) {
        // Re-expand the revisited state along exactly the transitions its
        // first visit pruned under a sleep assumption this arrival
        // invalidates.  `child` IS a representative of that state (under
        // symmetry possibly a different one than the discoverer held —
        // canonical keys make the sets comparable, and resolving against
        // this representative's own order yields equivalent transitions).
        local.child_order.clear();
        if (ctx.sym) canonical_order(local.child_enc, local.child_order);
        std::vector<Choice> missing;
        missing.reserve(local.missing_keys.size());
        for (const std::uint64_t key : local.missing_keys) {
          missing.push_back(resolve_sleep_key(key, local.child_order));
        }
        enqueue(ctx, wid,
                WorkItem{std::move(child), child_id, item.depth + 1,
                         child_sleep, std::move(missing)});
      }
      continue;
    }

    const std::uint64_t n =
        ctx.states.fetch_add(1, std::memory_order_relaxed) + 1;
    if ((ctx.opts->max_states != 0 && n > ctx.opts->max_states) ||
        n > kIdSpace) {
      ctx.abort.store(true, std::memory_order_relaxed);
      return;
    }

    if (child_terminal) {
      ++local.terminal_states;
      std::string why;
      if (const auto kind = check_terminal(child, *ctx.opts, why)) {
        ++local.violations_found;
        ++local.by_kind[*kind];
        {
          std::lock_guard<std::mutex> g(ctx.violation_mu);
          if (!ctx.pending) {
            ctx.pending = PendingViolation{child_id, *kind, std::move(why)};
          }
        }
        if (ctx.opts->stop_at_first_violation) {
          ctx.abort.store(true, std::memory_order_relaxed);
          return;
        }
      } else if (const auto agreed = detail::agreed_value(child)) {
        local.agreed_values.insert(*agreed);
      }
    } else {
      enqueue(ctx, wid, WorkItem{std::move(child), child_id, item.depth + 1,
                                 child_sleep, {}});
    }
  }
}

void worker_loop(Ctx& ctx, std::uint32_t wid, WorkerLocal& local) {
  WorkerQueue& self = ctx.queues[wid];
  // Terminates by quiescence: every enqueue increments `outstanding` and
  // every completed expansion decrements it, so outstanding == 0 with an
  // empty deque is final; `expand` honors the max_states cap, bounding
  // total enqueues.  A BudgetMeter here would duplicate those caps and
  // put one more shared counter in the steal-path hot loop.
  // ff-lint: allow(R4): quiescence-terminated; enqueues capped by max_states
  for (;;) {
    if (ctx.abort.load(std::memory_order_relaxed)) return;

    std::optional<WorkItem> item;
    {
      std::lock_guard<std::mutex> g(self.mu);
      if (!self.dq.empty()) {
        item.emplace(std::move(self.dq.back()));
        self.dq.pop_back();
      }
    }
    if (!item) {
      // Steal a chunk from the oldest (front, closest-to-root) end of a
      // victim's deque: old frontier states head larger subtrees.
      for (std::uint32_t i = 1; i <= ctx.num_workers && !item; ++i) {
        WorkerQueue& victim = ctx.queues[(wid + i) % ctx.num_workers];
        if (&victim == &self) continue;
        // Never hold two deque mutexes at once (two thieves targeting
        // each other would form a lock cycle): drain the chunk into a
        // local buffer under the victim's lock, then re-lock our own.
        std::vector<WorkItem> chunk;
        {
          std::lock_guard<std::mutex> g(victim.mu);
          if (victim.dq.empty()) continue;
          const std::size_t take = std::min<std::size_t>(
              std::max<std::uint32_t>(1, ctx.chunk),
              (victim.dq.size() + 1) / 2);
          item.emplace(std::move(victim.dq.front()));
          victim.dq.pop_front();
          for (std::size_t k = 1; k < take; ++k) {
            chunk.push_back(std::move(victim.dq.front()));
            victim.dq.pop_front();
          }
        }
        if (!chunk.empty()) {
          std::lock_guard<std::mutex> g(self.mu);
          for (auto& stolen : chunk) {
            self.dq.push_back(std::move(stolen));
          }
        }
      }
    }
    if (!item) {
      if (ctx.outstanding.load(std::memory_order_acquire) == 0) return;
      std::this_thread::yield();
      continue;
    }
    expand(ctx, wid, *item, local);
    ctx.outstanding.fetch_sub(1, std::memory_order_acq_rel);
  }
}

/// Discovery-tree record chain root → `id` (in forward order).
std::vector<const StateRecord*> record_chain(const Ctx& ctx,
                                             std::uint32_t id) {
  std::vector<const StateRecord*> chain;
  // Each hop strictly decreases discovery-tree depth, so the walk is
  // bounded by the depth of `id` — no open-ended iteration.
  for (const StateRecord* rec = &ctx.record(id); rec->parent != kNoParent;
       rec = &ctx.record(rec->parent)) {
    chain.push_back(rec);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

/// Choices along the discovery tree from the root to `id`, resolved into
/// a directly replayable schedule.  Without symmetry the recorded
/// choices replay verbatim.  Under symmetry each record's choice was
/// taken at the REPRESENTATIVE the discoverer held, which may differ
/// from the representative this walk reaches — so the choice is
/// re-resolved through its canonical slot against the walk's own world
/// (equal blocks are interchangeable, so any tie-break is equivalent).
/// `world_out`, when non-null, receives the world after the walk.
std::vector<Choice> path_from_root(const Ctx& ctx, std::uint32_t id,
                                   SimWorld* world_out = nullptr) {
  const auto chain = record_chain(ctx, id);
  std::vector<Choice> out;
  out.reserve(chain.size());
  if (!ctx.sym && world_out == nullptr) {
    for (const StateRecord* rec : chain) out.push_back(rec->choice);
    return out;
  }
  SimWorld world = *ctx.root;
  StateEncoder encoder;
  EncodedState enc;
  std::vector<std::uint32_t> order;
  for (const StateRecord* rec : chain) {
    Choice c = rec->choice;
    if (ctx.sym && rec->slot != kNoSlot) {
      encoder.encode(world, enc);
      canonical_order(enc, order);
      c.pid = order[rec->slot];
    }
    out.push_back(c);
    world.apply(c);
  }
  if (world_out != nullptr) *world_out = std::move(world);
  return out;
}

}  // namespace

ExploreResult parallel_explore(const SimWorld& initial,
                               const ParallelExploreOptions& options) {
  ExploreResult result;
  const ExploreOptions& opts = options.explore;

  // The prune counters are shared by every SimWorld copy the workers
  // make (WorkItem worlds, expansion children), so this search's
  // contribution is the delta over the initial snapshot.
  const std::uint64_t checks0 = initial.immunity_checks();
  const std::uint64_t skips0 = initial.immunity_skips();

  // Terminal root: identical to the sequential special case.
  if (initial.terminal()) {
    result.states_visited = 1;
    result.terminal_states = 1;
    std::string why;
    if (const auto kind = check_terminal(initial, opts, why)) {
      result.violations_found = 1;
      result.violations_by_kind[*kind] = 1;
      result.violation = Violation{*kind, {}, std::move(why)};
    } else if (const auto agreed = detail::agreed_value(initial)) {
      result.agreed_values.insert(*agreed);
    }
    result.complete =
        result.violations_found == 0 || !opts.stop_at_first_violation;
    return result;
  }

  Ctx ctx;
  ctx.opts = &opts;
  ctx.root = &initial;
  ctx.sym = opts.symmetry_reduction && initial.processes_symmetric();
  ctx.por = opts.sleep_sets;
  const std::uint32_t shards =
      std::bit_ceil(std::max<std::uint32_t>(1, options.shard_count));
  ctx.shard_bits = static_cast<std::uint32_t>(std::countr_zero(shards));
  ctx.shard_mask = shards - 1;
  std::uint32_t workers = options.num_threads != 0
                              ? options.num_threads
                              : std::thread::hardware_concurrency();
  ctx.num_workers = std::max<std::uint32_t>(1, workers);
  ctx.chunk = std::max<std::uint32_t>(1, options.chunk_size);
  ctx.shards = std::vector<Shard>(shards);
  ctx.queues = std::vector<WorkerQueue>(ctx.num_workers);

  Fingerprint root_fp;
  {
    StateEncoder encoder;
    EncodedState enc;
    encoder.encode(initial, enc);
    root_fp = fingerprint_state(enc, ctx.sym);
  }
  const InternResult root_in =
      intern(ctx, root_fp, false, kNoParent, Choice{}, kNoSlot, {}, nullptr);
  assert(root_in.inserted);
  ctx.states.store(1, std::memory_order_relaxed);
  ctx.outstanding.store(1, std::memory_order_relaxed);
  ctx.queues[0].dq.push_back(WorkItem{initial, root_in.stored, 0, {}, {}});

  std::vector<WorkerLocal> locals(ctx.num_workers);
  {
    std::vector<std::thread> threads;
    threads.reserve(ctx.num_workers);
    for (std::uint32_t wid = 0; wid < ctx.num_workers; ++wid) {
      threads.emplace_back(
          [&ctx, wid, &locals] { worker_loop(ctx, wid, locals[wid]); });
    }
    for (auto& t : threads) t.join();
  }

  const bool aborted = ctx.abort.load(std::memory_order_relaxed);
  result.states_visited = ctx.states.load(std::memory_order_relaxed);
  for (const WorkerLocal& l : locals) {
    result.terminal_states += l.terminal_states;
    result.violations_found += l.violations_found;
    result.max_depth = std::max(result.max_depth, l.max_depth);
    for (const auto& [kind, count] : l.by_kind) {
      result.violations_by_kind[kind] += count;
    }
    result.agreed_values.insert(l.agreed_values.begin(),
                                l.agreed_values.end());
  }
  if (ctx.pending) {
    result.violation =
        Violation{ctx.pending->kind, path_from_root(ctx, ctx.pending->id),
                  std::move(ctx.pending->detail)};
  }

  // Cycle pass — only meaningful when the frontier fully drained (an
  // aborted run has not seen the whole graph, exactly like a capped or
  // first-violation-stopped sequential DFS).
  if (!aborted) {
    std::vector<std::uint32_t> shard_sizes;
    for (const Shard& shard : ctx.shards) {
      shard_sizes.push_back(static_cast<std::uint32_t>(shard.records.size()));
    }
    std::vector<std::span<const CycleEdge>> edge_lists;
    for (const WorkerLocal& l : locals) edge_lists.emplace_back(l.edges);
    add_nontermination(
        scan_cycles(shard_sizes, ctx.shard_bits, edge_lists), *ctx.root,
        ctx.sym, opts,
        [&ctx](std::uint32_t u, SimWorld* at_u) {
          return path_from_root(ctx, u, at_u);
        },
        result);
  }

  result.complete =
      !aborted &&
      !(opts.stop_at_first_violation && result.violations_found > 0);
  result.immunity_checks = initial.immunity_checks() - checks0;
  result.immunity_skips = initial.immunity_skips() - skips0;
  // End-of-run capacity census of the monotone search structures.  The
  // unordered_map node cost is estimated (key + value + next pointer,
  // rounded to the allocator's 32-byte bin) — comparable across runs,
  // which is all spill-watermark tuning needs.
  for (const Shard& shard : ctx.shards) {
    result.peak_bytes += shard.table.size() * 32 +
                         shard.table.bucket_count() * sizeof(void*) +
                         shard.records.capacity() * sizeof(StateRecord);
    for (const auto& [id, keys] : shard.sleep) {
      result.peak_bytes += 48 + keys.capacity() * 8;
      (void)id;
    }
  }
  for (const WorkerLocal& l : locals) {
    result.peak_bytes += l.edges.capacity() * sizeof(CycleEdge);
  }
  return result;
}

}  // namespace ff::sched
