#include "sched/explorer.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sched/explore_common.hpp"
#include "sched/lane_space.hpp"
#include "sched/reduce.hpp"

namespace ff::sched {

using detail::Fingerprint;
using detail::FlatFpMap;
using detail::check_terminal;

ExploreResult explore(const SimWorld& initial, const ExploreOptions& options) {
  ExploreResult result;

  const bool sym =
      options.symmetry_reduction && initial.processes_symmetric();

  // The search walks compact states (sched/lane_space.hpp): shared words
  // plus one hash-consed machine lane per process, stepped through the
  // memo.  Frames keep their states in one flat arena, `stride` words
  // each, and their transition lists in choice_arena; both are truncated
  // LIFO-style as frames pop.  Traversal stays concrete — one real
  // representative per state, only the memoization key is canonical —
  // so every recorded witness is a directly replayable schedule.
  LaneArena arena;
  LaneCache cache;
  const LaneSpace space(initial, arena, sym, options.killed_is_violation);
  const std::size_t stride = space.stride();

  struct Frame {
    std::uint32_t id = 0;
    std::uint32_t tran_off = 0;
    std::uint32_t tran_count = 0;
    std::uint32_t next = 0;
    /// Number of choices from the root to this frame's state.
    std::uint32_t depth = 0;
  };

  FlatFpMap table;
  std::uint32_t next_id = 0;

  // One bit per state id: set while the state is on the DFS path.  The
  // ancestor frame itself is looked up only on a back-edge.
  std::vector<std::uint64_t> on_path;
  const auto set_on_path = [&](std::uint32_t id, bool on) {
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    on_path[id >> 6] = on ? on_path[id >> 6] | bit : on_path[id >> 6] & ~bit;
  };
  // The wait-free bound, in post-order: longest[id] is the longest
  // distance from state `id` to a terminal state, a running maximum
  // while the state is on the path and final once it pops.  Any
  // back-edge, an adversary-only one included, means some execution
  // never ends, so there is no bound.
  const bool want_bound = options.wait_free_bound;
  std::vector<std::uint32_t> longest;
  bool cyclic = false;
  const auto fold_longest = [&](std::uint32_t id, std::uint32_t steps) {
    longest[id] = std::max(longest[id], steps);
  };
  const auto new_id = [&] {
    if ((next_id & 63) == 0) on_path.push_back(0);
    if (want_bound) longest.push_back(0);
    return next_id++;
  };

  std::vector<Frame> stack;
  std::vector<std::uint64_t> states;  // frame i's state at [i*stride, +stride)
  std::vector<Choice> choice_arena;
  std::vector<Choice> path;
  std::vector<Choice> enabled;  // reusable scratch
  std::vector<std::uint64_t> child(stride);
  stack.reserve(256);
  states.reserve(256 * stride);
  choice_arena.reserve(4096);
  path.reserve(1024);

  const auto push_frame = [&](const std::uint64_t* state, std::uint32_t id,
                              std::uint32_t depth) {
    const auto tran_off = static_cast<std::uint32_t>(choice_arena.size());
    space.enabled(state, enabled, cache);
    choice_arena.insert(choice_arena.end(), enabled.begin(), enabled.end());
    states.insert(states.end(), state, state + stride);
    set_on_path(id, true);
    stack.push_back(Frame{id, tran_off,
                          static_cast<std::uint32_t>(enabled.size()), 0,
                          depth});
  };

  // The verdict comes from the compact state; the first violation's
  // detail string from replaying its path through SimWorld.
  const auto record_terminal = [&](const std::uint64_t* state) {
    ++result.terminal_states;
    const TerminalVerdict verdict = space.verdict(state);
    if (verdict.kind) {
      ++result.violations_found;
      ++result.violations_by_kind[*verdict.kind];
      if (!result.violation) {
        std::string detail;
        const auto kind =
            check_terminal(replay(initial, path), options, detail);
        assert(kind == verdict.kind);
        (void)kind;
        result.violation = Violation{*verdict.kind, path, std::move(detail)};
      }
      return options.stop_at_first_violation;
    }
    if (verdict.agreed) result.agreed_values.insert(*verdict.agreed);
    return false;
  };

  const auto finish = [&](bool complete) {
    result.complete = complete;
    result.table_grows = table.grows();
    result.immunity_checks = cache.immunity_checks;
    result.immunity_skips = cache.immunity_skips;
    // End-of-run capacity census of the monotone search structures (the
    // table, the arenas and the lane memo are never shrunk, so final
    // capacity is peak capacity).
    result.peak_bytes =
        table.capacity() * 24 + on_path.capacity() * sizeof(std::uint64_t) +
        stack.capacity() * sizeof(Frame) +
        states.capacity() * sizeof(std::uint64_t) +
        choice_arena.capacity() * sizeof(Choice) +
        path.capacity() * sizeof(Choice) +
        longest.capacity() * sizeof(std::uint32_t) + arena.bytes() +
        cache.memo_bytes();
    if (want_bound && complete && !cyclic) result.wait_free_bound = longest[0];
    return result;
  };

  space.state_of(initial, child.data());
  table.insert_or_get(space.fingerprint(child.data(), cache), new_id());
  result.states_visited = 1;

  if (space.terminal(child.data())) {
    record_terminal(child.data());
    return finish(result.violations_found == 0 ||
                  !options.stop_at_first_violation);
  }

  push_frame(child.data(), 0, 0);

  bool aborted = false;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next >= frame.tran_count) {
      set_on_path(frame.id, false);
      path.resize(frame.depth == 0 ? 0 : frame.depth - 1);
      choice_arena.resize(frame.tran_off);
      states.resize(states.size() - stride);
      if (want_bound && stack.size() > 1) {
        fold_longest(stack[stack.size() - 2].id, longest[frame.id] + 1);
      }
      stack.pop_back();
      continue;
    }

    const Choice choice = choice_arena[frame.tran_off + frame.next++];
    space.apply(states.data() + states.size() - stride, choice, child.data(),
                cache);
    if (arena.overflowed()) {
      aborted = true;
      break;
    }
    const Fingerprint fp = space.fingerprint(child.data(), cache);
    table.prefetch(fp);  // overlap the probe's DRAM miss with the below

    path.push_back(choice);
    result.max_depth = std::max<std::uint64_t>(result.max_depth, path.size());

    const std::uint32_t existing = table.insert_or_get(fp, next_id);
    if (existing == FlatFpMap::kNoValue) {
      const std::uint32_t id = new_id();
      ++result.states_visited;
      if (options.max_states != 0 &&
          result.states_visited > options.max_states) {
        aborted = true;
        break;
      }
      if (space.terminal(child.data())) {
        if (want_bound) fold_longest(frame.id, 1);
        const bool stop = record_terminal(child.data());
        path.pop_back();
        if (stop) {
          aborted = true;
          break;
        }
        continue;
      }
      push_frame(child.data(), id, static_cast<std::uint32_t>(path.size()));
      continue;
    }

    if ((on_path[existing >> 6] >> (existing & 63) & 1) == 0) {
      if (want_bound) fold_longest(frame.id, longest[existing] + 1);
    } else {
      // Back-edge: the child is (an orbit-mate of) a state on the current
      // path — an infinite execution exists.  It violates wait-freedom
      // only if a process (not the corruption adversary) steps within the
      // repeating segment.
      cyclic = true;
      std::size_t anc = stack.size() - 1;
      while (stack[anc].id != existing) --anc;
      const std::uint32_t anc_depth = stack[anc].depth;
      bool process_steps = false;
      for (std::size_t i = anc_depth; i < path.size(); ++i) {
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
            // witness strict-replays.  The ancestor world is rebuilt by
            // replaying its path prefix — a one-off O(depth) cost on the
            // first witness only.
            const SimWorld anc_world = replay(
                initial, std::vector<Choice>(path.begin(),
                                             path.begin() + anc_depth));
            const std::vector<Choice> segment(path.begin() + anc_depth,
                                              path.end());
            if (auto closed = close_symmetric_cycle(anc_world, segment)) {
              witness.assign(path.begin(), path.begin() + anc_depth);
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

  return finish(!aborted && stack.empty());
}

SimWorld replay(const SimWorld& initial, const std::vector<Choice>& schedule) {
  SimWorld world = initial;
  for (const Choice& choice : schedule) world.apply(choice);
  return world;
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
  FlatFpMap visited;
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
