#include "sched/explorer.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "sched/explore_common.hpp"
#include "sched/reduce.hpp"

namespace ff::sched {

using detail::Fingerprint;
using detail::FingerprintHash;
using detail::FlatFpMap;
using detail::check_terminal;
using detail::fingerprint;
using detail::table_hint;

ExploreResult explore(const SimWorld& initial, const ExploreOptions& options) {
  ExploreResult result;

  // The prune counters live in the world and are SHARED by every copy
  // (including `cur` below), so this search's contribution is the delta
  // over the initial snapshot — callers may reuse one world across runs.
  const std::uint64_t checks0 = initial.immunity_checks();
  const std::uint64_t skips0 = initial.immunity_skips();

  const bool sym =
      options.symmetry_reduction && initial.processes_symmetric();

  constexpr std::uint32_t kNotOnPath = 0xFFFFFFFFu;

  // DFS frames index into a shared arena instead of owning vectors: a
  // frame's transition list lives contiguously in choice_arena, and frame
  // pops truncate it LIFO-style.  Worlds and encodings stay REAL (one
  // concrete representative); only the memoization key is canonicalized,
  // so every recorded witness is a directly replayable schedule.
  //
  // Frames do NOT own worlds.  The stack is always a root-to-current
  // path, so a single world (`cur`) is stepped in place on descent and
  // rolled back on pop via a per-depth StepUndo stack — no state ever
  // pays a full world copy (which clones every machine), only the one
  // machine clone its arrival step saves.
  struct Frame {
    EncodedState enc;
    std::uint32_t id = 0;
    std::uint32_t tran_off = 0;
    std::uint32_t tran_count = 0;
    std::uint32_t next = 0;
    /// Number of choices from the root to this frame's state.
    std::uint32_t depth = 0;
  };

  StateEncoder encoder;
  FlatFpMap table(table_hint(options));
  std::uint32_t next_id = 0;

  // Frame index of each state while it is on the DFS path, indexed by the
  // dense id the table hands out.
  std::vector<std::uint32_t> path_frame;

  std::vector<Frame> stack;
  std::vector<Choice> choice_arena;
  std::vector<Choice> path;
  stack.reserve(256);
  choice_arena.reserve(4096);
  path.reserve(1024);
  path_frame.reserve(table_hint(options));

  // The one concrete world, stepped in place.  undo_stack[i] rolls the
  // world back from frame i's state to frame i-1's; the slots are reused
  // across the search so their buffers stop allocating.
  SimWorld cur(initial);
  std::vector<SimWorld::StepUndo> undo_stack;
  undo_stack.resize(64);
  auto undo_slot = [&](std::size_t i) -> SimWorld::StepUndo& {
    if (i >= undo_stack.size()) undo_stack.resize(i + 32);
    return undo_stack[i];
  };

  EncodedState child_enc;  // reusable scratch

  // Pushes a frame for the state `cur` currently holds.
  auto push_frame = [&](EncodedState&& enc, std::uint32_t id,
                        std::uint32_t depth) {
    const auto tran_off = static_cast<std::uint32_t>(choice_arena.size());
    const std::vector<Choice> enabled = cur.enabled();
    choice_arena.insert(choice_arena.end(), enabled.begin(), enabled.end());
    path_frame[id] = static_cast<std::uint32_t>(stack.size());
    stack.push_back(Frame{std::move(enc), id, tran_off,
                          static_cast<std::uint32_t>(enabled.size()), 0,
                          depth});
  };

  auto record_terminal = [&](const SimWorld& world) {
    ++result.terminal_states;
    std::string detail;
    const auto kind = check_terminal(world, options, detail);
    if (kind) {
      ++result.violations_found;
      ++result.violations_by_kind[*kind];
      if (!result.violation) {
        result.violation = Violation{*kind, path, std::move(detail)};
      }
      return options.stop_at_first_violation;
    }
    if (const auto agreed = detail::agreed_value(world)) {
      result.agreed_values.insert(*agreed);
    }
    return false;
  };

  EncodedState root_enc;
  encoder.encode(initial, root_enc);
  table.insert_or_get(fingerprint_state(root_enc, sym), next_id++);
  path_frame.push_back(kNotOnPath);
  result.states_visited = 1;

  if (initial.terminal()) {
    record_terminal(initial);
    result.complete =
        result.violations_found == 0 || !options.stop_at_first_violation;
    result.table_grows = table.grows();
    result.immunity_checks = initial.immunity_checks() - checks0;
    result.immunity_skips = initial.immunity_skips() - skips0;
    result.peak_bytes = table.capacity() * 24;
    return result;
  }

  push_frame(std::move(root_enc), 0, 0);

  bool aborted = false;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next >= frame.tran_count) {
      path_frame[frame.id] = kNotOnPath;
      path.resize(frame.depth == 0 ? 0 : frame.depth - 1);
      choice_arena.resize(frame.tran_off);
      if (stack.size() > 1) cur.undo_step(undo_stack[stack.size() - 1]);
      stack.pop_back();
      continue;
    }

    const Choice choice = choice_arena[frame.tran_off + frame.next++];
    // Expand in place (StepUndo): `cur` steps forward; if the child turns
    // out to be a duplicate or terminal it is rolled back immediately, if
    // it becomes a frame the undo stays on undo_stack until that frame
    // pops.  Either way the step costs one machine clone, never a full
    // world copy.
    SimWorld::StepUndo& undo = undo_slot(stack.size());
    cur.apply_with_undo(choice, undo);
    encoder.patch(cur, frame.enc, choice.pid, child_enc);
    const Fingerprint fp = fingerprint_state(child_enc, sym);
    table.prefetch(fp);  // overlap the probe's DRAM miss with the below

    path.push_back(choice);
    result.max_depth = std::max<std::uint64_t>(result.max_depth, path.size());

    const std::uint32_t existing = table.insert_or_get(fp, next_id);
    if (existing == FlatFpMap::kNoValue) {
      const std::uint32_t id = next_id++;
      path_frame.push_back(kNotOnPath);
      ++result.states_visited;
      if (options.max_states != 0 &&
          result.states_visited > options.max_states) {
        aborted = true;
        break;
      }
      if (cur.terminal()) {
        const bool stop = record_terminal(cur);
        cur.undo_step(undo);
        path.pop_back();
        if (stop) {
          aborted = true;
          break;
        }
        continue;
      }
      const auto depth = static_cast<std::uint32_t>(path.size());
      push_frame(std::move(child_enc), id, depth);
      continue;
    }

    cur.undo_step(undo);
    if (path_frame[existing] != kNotOnPath) {
      // Back-edge: the child is (an orbit-mate of) a state on the current
      // path — an infinite execution exists.  It violates wait-freedom
      // only if a process (not the corruption adversary) steps within the
      // repeating segment.
      const Frame& anc = stack[path_frame[existing]];
      bool process_steps = false;
      for (std::size_t i = anc.depth; i < path.size(); ++i) {
        if (path[i].pid != kAdversaryPid) {
          process_steps = true;
          break;
        }
      }
      if (process_steps) {
        ++result.violations_found;
        ++result.violations_by_kind[ViolationKind::kNontermination];
        if (!result.violation) {
          std::vector<Choice> witness = path;
          if (sym) {
            // Under symmetry the segment returns to an orbit-mate, not
            // necessarily the exact ancestor encoding; extend it by
            // permuted laps until the encoding closes exactly, so the
            // witness strict-replays.  Frames hold no worlds, so the
            // ancestor state is rebuilt by replaying its path prefix —
            // a one-off O(depth) cost on the first witness only.
            SimWorld anc_world(initial);
            for (std::size_t i = 0; i < anc.depth; ++i) {
              anc_world.apply(path[i]);
            }
            const std::vector<Choice> segment(path.begin() + anc.depth,
                                              path.end());
            if (auto closed = close_symmetric_cycle(anc_world, segment)) {
              witness.assign(path.begin(), path.begin() + anc.depth);
              witness.insert(witness.end(), closed->begin(), closed->end());
            }
          }
          result.violation =
              Violation{ViolationKind::kNontermination, std::move(witness),
                        "cycle in the state graph: a process can take "
                        "steps forever"};
        }
        if (options.stop_at_first_violation) {
          aborted = true;
          break;
        }
      }
    }
    path.pop_back();
  }

  result.complete = !aborted && stack.empty();
  result.table_grows = table.grows();
  result.immunity_checks = cur.immunity_checks() - checks0;
  result.immunity_skips = cur.immunity_skips() - skips0;
  // End-of-run capacity census of the monotone search structures (the
  // table and the per-state/per-frame arenas are never shrunk, so final
  // capacity is peak capacity).
  result.peak_bytes =
      table.capacity() * 24 + path_frame.capacity() * sizeof(std::uint32_t) +
      stack.capacity() * sizeof(Frame) +
      choice_arena.capacity() * sizeof(Choice) +
      path.capacity() * sizeof(Choice);
  return result;
}

SimWorld replay(const SimWorld& initial, const std::vector<Choice>& schedule) {
  SimWorld world = initial;
  for (const Choice& choice : schedule) world.apply(choice);
  return world;
}

LongestExecutionResult longest_execution(const SimWorld& initial,
                                         const ExploreOptions& options) {
  LongestExecutionResult result;

  const bool sym =
      options.symmetry_reduction && initial.processes_symmetric();

  // Post-order DFS computing, per state, the longest distance to any
  // terminal.  A back-edge to a state on the current path is a cycle:
  // some execution runs forever and no finite bound exists.  Distances
  // are orbit-invariant (a permutation maps executions to equal-length
  // executions), so memoizing on canonical fingerprints is sound.
  struct Frame {
    SimWorld world;
    Fingerprint fp;
    std::vector<Choice> choices;
    std::size_t next = 0;
    std::uint64_t best = 0;
  };

  StateEncoder encoder;
  EncodedState enc;
  const auto fp_of = [&](const SimWorld& world) {
    encoder.encode(world, enc);
    return fingerprint_state(enc, sym);
  };

  std::unordered_map<Fingerprint, std::uint64_t, FingerprintHash> memo;
  std::unordered_set<Fingerprint, FingerprintHash> on_path;
  std::vector<Frame> stack;
  stack.reserve(256);

  const Fingerprint root_fp = fp_of(initial);
  result.states_visited = 1;
  if (initial.terminal()) {
    result.complete = true;
    return result;
  }
  stack.push_back(Frame{initial, root_fp, initial.enabled(), 0, 0});
  on_path.insert(root_fp);

  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next >= frame.choices.size()) {
      memo.emplace(frame.fp, frame.best);
      on_path.erase(frame.fp);
      const std::uint64_t finished = frame.best;
      stack.pop_back();
      if (stack.empty()) {
        result.max_total_steps = finished;
        result.complete = true;
        return result;
      }
      Frame& parent = stack.back();
      parent.best = std::max(parent.best, finished + 1);
      continue;
    }

    const Choice choice = frame.choices[frame.next++];
    SimWorld child = frame.world;
    child.apply(choice);
    const Fingerprint fp = fp_of(child);

    if (on_path.contains(fp)) {
      result.bounded = false;  // cycle: unbounded execution exists
      return result;
    }
    if (const auto it = memo.find(fp); it != memo.end()) {
      frame.best = std::max(frame.best, it->second + 1);
      continue;
    }
    ++result.states_visited;
    if (options.max_states != 0 &&
        result.states_visited > options.max_states) {
      return result;  // incomplete
    }
    if (child.terminal()) {
      memo.emplace(fp, 0);
      frame.best = std::max(frame.best, std::uint64_t{1});
      continue;
    }
    auto choices = child.enabled();
    on_path.insert(fp);
    stack.push_back(Frame{std::move(child), fp, std::move(choices), 0, 0});
  }
  result.complete = true;
  return result;
}

ShortestViolationResult find_shortest_violation(const SimWorld& initial,
                                                const ExploreOptions& options) {
  ShortestViolationResult result;

  const bool sym =
      options.symmetry_reduction && initial.processes_symmetric();

  struct Node {
    SimWorld world;
    std::vector<Choice> path;
  };

  StateEncoder encoder;
  EncodedState enc;
  const auto fp_of = [&](const SimWorld& world) {
    encoder.encode(world, enc);
    return fingerprint_state(enc, sym);
  };

  // Symmetry only: BFS expands real worlds and dedups orbit-mates, so
  // minimality is preserved (a length-L execution exists to a violating
  // state iff one exists to its representative's orbit).
  FlatFpMap visited(table_hint(options));
  std::vector<Node> frontier;
  frontier.reserve(64);
  frontier.push_back({initial, {}});
  visited.insert_or_get(fp_of(initial), 0);
  result.states_visited = 1;

  auto check = [&](const Node& node) -> bool {
    if (!node.world.terminal()) return false;
    std::string detail;
    const auto kind = check_terminal(node.world, options, detail);
    if (kind) {
      result.violation = Violation{*kind, node.path, std::move(detail)};
      return true;
    }
    return false;
  };

  if (check(frontier.front())) return result;

  while (!frontier.empty()) {
    std::vector<Node> next;
    next.reserve(frontier.size() * 2);
    for (const Node& node : frontier) {
      for (const Choice& choice : node.world.enabled()) {
        SimWorld child = node.world;
        child.apply(choice);
        const Fingerprint fp = fp_of(child);
        if (visited.insert_or_get(fp, 0) != FlatFpMap::kNoValue) continue;
        ++result.states_visited;
        if (options.max_states != 0 &&
            result.states_visited > options.max_states) {
          return result;  // incomplete, no violation found yet
        }
        Node child_node{std::move(child), node.path};
        child_node.path.push_back(choice);
        if (check(child_node)) {
          return result;  // BFS order ⇒ this witness is minimal
        }
        if (!child_node.world.terminal()) {
          next.push_back(std::move(child_node));
        }
      }
    }
    frontier = std::move(next);
  }
  result.complete = true;
  return result;
}

}  // namespace ff::sched
