#include "sched/cycle_scan.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "sched/reduce.hpp"

namespace ff::sched {

CycleScanResult scan_cycles(
    const std::vector<std::uint32_t>& shard_sizes, std::uint32_t shard_bits,
    const std::vector<std::span<const CycleEdge>>& lists) {
  CycleScanResult scan;
  assert(shard_sizes.size() == (std::size_t{1} << shard_bits));
  // Dense state numbering: shard-base prefix sums.  Ids are 31-bit, so
  // the state count fits 32 bits; edge counts and offsets need not.
  std::vector<std::uint32_t> shard_base(shard_sizes.size());
  std::uint32_t n = 0;
  for (std::size_t s = 0; s < shard_sizes.size(); ++s) {
    shard_base[s] = n;
    n += shard_sizes[s];
  }
  const std::uint32_t mask = (std::uint32_t{1} << shard_bits) - 1;
  const auto dense = [&](std::uint32_t id) {
    return shard_base[id & mask] + (id >> shard_bits);
  };

  std::uint64_t num_edges = 0;
  for (const std::span<const CycleEdge> l : lists) num_edges += l.size();
  if (num_edges == 0) {
    scan.peeled = n;
    scan.peel_rounds = n == 0 ? 0 : 1;
    return scan;
  }

  // Successor CSR straight from the lists, filled in list order so each
  // state's successors keep their recorded order.  offset[v + 1] first
  // counts v's out-edges, then holds v's start while the fill advances
  // it to v's end, which is where v + 1 starts.
  std::vector<std::uint64_t> offset(std::size_t{n} + 1, 0);
  std::vector<std::uint32_t> indeg(n, 0);
  for (const std::span<const CycleEdge> l : lists) {
    for (const CycleEdge& e : l) {
      ++offset[dense(e.source()) + 1];
      ++indeg[dense(e.to)];
    }
  }
  for (std::uint64_t v = 0, start = 0; v < n; ++v) {
    const std::uint64_t out = offset[v + 1];
    offset[v + 1] = start;
    start += out;
  }
  std::vector<std::uint32_t> succ(num_edges);
  for (const std::span<const CycleEdge> l : lists) {
    for (const CycleEdge& e : l) {
      succ[offset[dense(e.source()) + 1]++] = dense(e.to);
    }
  }

  // Peel.  A state on a cycle keeps an in-edge from its cycle
  // predecessor, so it never reaches in-degree zero; when every state
  // peels there is no cycle.  Afterwards indeg[v] == 0 iff v peeled.
  // The queue is FIFO: it peels roughly wave by wave, which keeps the
  // in-degree updates near each other (a LIFO stack made the peel about
  // twice as slow on proof-sym).  It also peels in rounds: round k + 1
  // is what round k freed, and `level_end` marks where the round being
  // drained ends.
  {
    std::vector<std::uint32_t> ready;
    ready.reserve(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      if (indeg[v] == 0) ready.push_back(v);
    }
    std::size_t level_end = 0;
    for (std::size_t head = 0; head < ready.size(); ++head) {
      if (head == level_end) {
        ++scan.peel_rounds;
        level_end = ready.size();
      }
      const std::uint32_t v = ready[head];
      for (std::uint64_t i = offset[v]; i < offset[v + 1]; ++i) {
        if (--indeg[succ[i]] == 0) ready.push_back(succ[i]);
      }
    }
    scan.peeled = ready.size();
  }
  if (scan.peeled == n) return scan;
  const auto peeled = [&](std::uint32_t v) { return indeg[v] == 0; };

  // Iterative Tarjan over the states that did not peel.  A peeled state
  // is its own SCC without a self-loop, so it keeps scc_of == kUndef and
  // no edge touching it is cyclic.
  constexpr std::uint32_t kUndef = 0xFFFFFFFFu;
  std::vector<std::uint32_t> index(n, kUndef), lowlink(n, kUndef);
  std::vector<std::uint32_t> scc_of(n, kUndef);
  std::vector<bool> on_stack(n, false);
  std::vector<std::uint32_t> stack;
  std::vector<std::uint32_t> scc_size;
  struct Frame {
    std::uint32_t v;
    std::uint64_t next;  ///< next CSR position to follow
  };
  std::vector<Frame> frames;
  std::uint32_t next_index = 0;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (peeled(root) || index[root] != kUndef) continue;
    frames.push_back({root, offset[root]});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next < offset[f.v + 1]) {
        const std::uint32_t w = succ[f.next++];
        if (peeled(w)) continue;
        if (index[w] == kUndef) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, offset[w]});
        } else if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
        continue;
      }
      if (lowlink[f.v] == index[f.v]) {
        const auto scc_id = static_cast<std::uint32_t>(scc_size.size());
        std::uint32_t size = 0;
        // Pops at most |stack| entries and f.v is on the stack, so the
        // loop is bounded by its own condition.
        std::uint32_t w = kUndef;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          scc_of[w] = scc_id;
          ++size;
        } while (w != f.v);
        scc_size.push_back(size);
      }
      const std::uint32_t low = lowlink[f.v];
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().v] = std::min(lowlink[frames.back().v], low);
      }
    }
  }

  // Count the cyclic process edges in list order; keep the first.
  const CycleEdge* key = nullptr;
  for (const std::span<const CycleEdge> l : lists) {
    for (const CycleEdge& e : l) {
      if (!e.process_step()) continue;
      const std::uint32_t du = dense(e.source()), dv = dense(e.to);
      if (scc_of[du] != kUndef && scc_of[du] == scc_of[dv] &&
          (scc_size[scc_of[du]] > 1 || du == dv)) {
        ++scan.process_cycle_edges;
        if (key == nullptr) key = &e;
      }
    }
  }
  if (key == nullptr) return scan;

  // Lap: u → v, then a BFS v → … → u inside the SCC, following each
  // state's successors in CSR order.  `via` maps a CSR position back to
  // its edge (a second stable fill, made only now that a lap is needed).
  scan.lap.push_back(key);
  const std::uint32_t du = dense(key->source()), dv = dense(key->to);
  if (du == dv) return scan;
  std::vector<const CycleEdge*> via(num_edges);
  {
    std::vector<std::uint64_t> cursor(offset.begin(), offset.end() - 1);
    for (const std::span<const CycleEdge> l : lists) {
      for (const CycleEdge& e : l) via[cursor[dense(e.source())]++] = &e;
    }
  }
  std::vector<const CycleEdge*> pred(n, nullptr);
  std::vector<std::uint32_t> queue{dv};
  pred[dv] = key;  // marks v discovered; never followed
  bool found = false;
  for (std::size_t head = 0; head < queue.size() && !found; ++head) {
    const std::uint32_t x = queue[head];
    for (std::uint64_t i = offset[x]; i < offset[x + 1]; ++i) {
      const std::uint32_t y = succ[i];
      if (scc_of[y] != scc_of[du] || pred[y] != nullptr) continue;
      pred[y] = via[i];
      if (y == du) {
        found = true;
        break;
      }
      queue.push_back(y);
    }
  }
  assert(found && "SCC is strongly connected: a v→u path must exist");
  const std::size_t first_back = scan.lap.size();
  for (std::uint32_t cur = du; cur != dv; cur = dense(pred[cur]->source())) {
    scan.lap.push_back(pred[cur]);
  }
  std::reverse(scan.lap.begin() + static_cast<std::ptrdiff_t>(first_back),
               scan.lap.end());
  return scan;
}

std::vector<Choice> rederive(SimWorld& world,
                             std::span<const CycleEdge> hops,
                             bool match_kind, bool sym, const IdOf& id_of) {
  std::vector<Choice> out;
  out.reserve(hops.size());
  StateEncoder encoder;
  EncodedState enc;
  SimWorld::StepUndo undo;
  for (const CycleEdge& hop : hops) {
    bool found = false;
    for (const Choice& c : world.enabled()) {
      if (match_kind && (c.pid != kAdversaryPid) != hop.process_step()) {
        continue;
      }
      world.apply_with_undo(c, undo);
      encoder.encode(world, enc);
      if (id_of(fingerprint_state(enc, sym)) == hop.to) {
        out.push_back(c);
        found = true;
        break;
      }
      world.undo_step(undo);
    }
    if (!found) {
      throw std::runtime_error(
          "witness re-derivation: no choice reaches state " +
          std::to_string(hop.to));
    }
  }
  return out;
}

void add_nontermination(
    const CycleScanResult& scan, const SimWorld& root, bool sym,
    const ExploreOptions& opts,
    const std::function<std::vector<Choice>(std::uint32_t, SimWorld*)>&
        path_to,
    const IdOf& id_of, ExploreResult& result) {
  if (scan.process_cycle_edges == 0) return;
  const std::uint64_t reported =
      opts.stop_at_first_violation ? 1 : scan.process_cycle_edges;
  result.violations_found += reported;
  result.violations_by_kind[ViolationKind::kNontermination] += reported;
  if (result.violation) return;

  SimWorld at_u = root;
  std::vector<Choice> witness = path_to(scan.lap.front()->source(), &at_u);
  std::vector<CycleEdge> hops;
  hops.reserve(scan.lap.size());
  for (const CycleEdge* e : scan.lap) hops.push_back(*e);
  SimWorld world = at_u;
  std::vector<Choice> lap = rederive(world, hops, /*match_kind=*/true, sym,
                                     id_of);
  if (sym) {
    if (auto closed = close_symmetric_cycle(at_u, lap)) {
      lap = std::move(*closed);
    }
  }
  witness.insert(witness.end(), lap.begin(), lap.end());
  result.violation =
      Violation{ViolationKind::kNontermination, std::move(witness),
                "cycle in the state graph: a process can take steps forever"};
}

}  // namespace ff::sched
