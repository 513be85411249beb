// The frontier explorer's nontermination scan (sched/cycle_scan.hpp):
// hand-built graphs, the peel's round count (the wait-free bound's
// source), a brute-force reachability oracle over random small graphs,
// and a pin of the engine's results on jobs with and without process
// cycles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/fault_kind.hpp"
#include "model/tolerance.hpp"
#include "sched/cycle_scan.hpp"
#include "util/rng.hpp"
#include "verify/run.hpp"

namespace ff::sched {
namespace {

// ---------------------------------------------------------------------
// Graph builder.  Node v gets the sharded id the engine would give it
// with 2^shard_bits shards: shard v % S, index v / S.
// ---------------------------------------------------------------------

struct Graph {
  std::uint32_t n = 0;
  std::uint32_t shard_bits = 0;
  std::vector<std::vector<CycleEdge>> lists;

  Graph(std::uint32_t nodes, std::uint32_t bits, std::size_t num_lists)
      : n(nodes), shard_bits(bits), lists(num_lists) {}

  [[nodiscard]] std::uint32_t id(std::uint32_t v) const {
    const std::uint32_t shards = std::uint32_t{1} << shard_bits;
    return ((v / shards) << shard_bits) | (v % shards);
  }
  /// Inverse of id().
  [[nodiscard]] std::uint32_t node(std::uint32_t id) const {
    const std::uint32_t shards = std::uint32_t{1} << shard_bits;
    return (id >> shard_bits) * shards + (id & (shards - 1));
  }
  void edge(std::uint32_t u, std::uint32_t v, bool process,
            std::size_t list = 0) {
    lists[list].push_back(
        CycleEdge{id(u) | (process ? 0u : CycleEdge::kAdversary), id(v)});
  }
  void proc(std::uint32_t u, std::uint32_t v) { edge(u, v, true); }
  void adv(std::uint32_t u, std::uint32_t v) { edge(u, v, false); }

  [[nodiscard]] CycleScanResult scan() const {
    const std::uint32_t shards = std::uint32_t{1} << shard_bits;
    std::vector<std::uint32_t> sizes(shards, 0);
    for (std::uint32_t v = 0; v < n; ++v) ++sizes[v % shards];
    const std::vector<std::span<const CycleEdge>> spans(lists.begin(),
                                                        lists.end());
    return scan_cycles(sizes, shard_bits, spans);
  }
};

/// (from, to) node pairs of a lap.
std::vector<std::pair<std::uint32_t, std::uint32_t>> hops(
    const Graph& g, const CycleScanResult& r) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const CycleEdge* e : r.lap) {
    out.emplace_back(g.node(e->source()), g.node(e->to));
  }
  return out;
}

TEST(CycleScan, EmptyEdgeListPeelsEverything) {
  const Graph g(5, 1, 2);
  const CycleScanResult r = g.scan();
  EXPECT_EQ(r.process_cycle_edges, 0u);
  EXPECT_EQ(r.peeled, 5u);
  EXPECT_EQ(r.peel_rounds, 1u);
  EXPECT_TRUE(r.lap.empty());
}

// ---------------------------------------------------------------------
// Peel rounds.  A state's round is the longest path to it from a state
// without an in-edge, so an acyclic graph peels in (longest path + 1)
// rounds — what the frontier reports as the wait-free bound.
// ---------------------------------------------------------------------

TEST(CycleScan, ChainPeelsOneStatePerRound) {
  Graph g(6, 1, 2);
  for (std::uint32_t v = 0; v + 1 < 6; ++v) {
    g.edge(v, v + 1, v % 2 == 0, v % 2);
  }
  const CycleScanResult r = g.scan();
  EXPECT_EQ(r.peeled, 6u);
  EXPECT_EQ(r.peel_rounds, 6u);
}

TEST(CycleScan, DiamondPeelsByItsLongerArm) {
  {
    Graph g(4, 0, 1);  // 0 → {1, 2} → 3
    g.proc(0, 1);
    g.proc(0, 2);
    g.proc(1, 3);
    g.proc(2, 3);
    const CycleScanResult r = g.scan();
    EXPECT_EQ(r.peeled, 4u);
    EXPECT_EQ(r.peel_rounds, 3u);
  }
  {
    // 0 → 1 → 2 → 3 → 5 and 0 → 4 → 5: 5 is two BFS levels down but
    // four edges down the longer arm, and the rounds follow that arm.
    Graph g(6, 2, 2);
    g.edge(0, 4, true, 0);
    g.edge(4, 5, true, 0);
    g.edge(0, 1, true, 1);
    g.edge(1, 2, false, 1);
    g.edge(2, 3, true, 1);
    g.edge(3, 5, true, 1);
    const CycleScanResult r = g.scan();
    EXPECT_EQ(r.peeled, 6u);
    EXPECT_EQ(r.peel_rounds, 5u);
  }
}

TEST(CycleScan, IsolatedTerminalStatesAddNoRound) {
  // The engine records no edge into a terminal state, so terminals sit
  // in round 0 beside the root and never lengthen the count.
  Graph g(7, 1, 1);
  g.proc(0, 1);
  g.proc(1, 2);
  const CycleScanResult r = g.scan();
  EXPECT_EQ(r.peeled, 7u);
  EXPECT_EQ(r.peel_rounds, 3u);
}

TEST(CycleScan, CycleStopsThePeelShort) {
  // 0 → 1 → 2 → 1 → 3: only the root peels, in one round; 1, 2 and the
  // tail 3 below the cycle never do, so no bound exists.
  Graph g(4, 0, 1);
  g.proc(0, 1);
  g.proc(1, 2);
  g.proc(2, 1);
  g.proc(1, 3);
  const CycleScanResult r = g.scan();
  EXPECT_EQ(r.peeled, 1u);
  EXPECT_EQ(r.peel_rounds, 1u);
  EXPECT_EQ(r.process_cycle_edges, 2u);
}

// A layered DAG whose BFS depths do not follow its edges: the root has a
// shortcut into every node, so every node sits at depth 1 and every edge
// inside the layers is a "retreat" (target no deeper than source), the
// shape the frontier's old depth pre-filter could not rule out.
TEST(CycleScan, LayeredDagWithRetreatShapedEdgesPeelsFully) {
  constexpr std::uint32_t kLayers = 6, kWidth = 5;
  const std::uint32_t n = 1 + kLayers * kWidth;
  Graph g(n, 2, 3);
  const auto at = [](std::uint32_t layer, std::uint32_t j) {
    return 1 + layer * kWidth + j;
  };
  std::size_t list = 0;
  std::size_t retreats = 0, total = 0;
  const auto add = [&](std::uint32_t u, std::uint32_t v, bool retreat) {
    g.edge(u, v, (u + v) % 3 != 0, list++ % 3);
    ++total;
    if (retreat) ++retreats;
  };
  for (std::uint32_t v = 1; v < n; ++v) add(0, v, false);
  for (std::uint32_t l = 0; l < kLayers; ++l) {
    for (std::uint32_t j = 0; j < kWidth; ++j) {
      if (j + 1 < kWidth) add(at(l, j), at(l, j + 1), true);  // cross
      if (l + 1 < kLayers) {
        for (std::uint32_t k = 0; k < kWidth; ++k) {
          add(at(l, j), at(l + 1, k), true);
        }
      }
    }
  }
  ASSERT_GT(retreats * 2, total);
  const CycleScanResult r = g.scan();
  EXPECT_EQ(r.process_cycle_edges, 0u);
  EXPECT_EQ(r.peeled, n);
  EXPECT_TRUE(r.lap.empty());
}

TEST(CycleScan, ProcessSelfLoopIsOneCyclicEdgeWithAOneEdgeLap) {
  Graph g(3, 0, 1);
  g.proc(0, 1);
  g.proc(1, 1);
  g.proc(1, 2);
  const CycleScanResult r = g.scan();
  EXPECT_EQ(r.process_cycle_edges, 1u);
  EXPECT_EQ(r.peeled, 1u);  // the root; 1 keeps its self-loop
  ASSERT_EQ(r.lap.size(), 1u);
  EXPECT_EQ(r.lap[0], &g.lists[0][1]);
}

TEST(CycleScan, AdversaryOnlyCycleIsNoProcessCycle) {
  Graph g(3, 0, 1);
  g.proc(0, 1);
  g.adv(1, 2);
  g.adv(2, 1);
  const CycleScanResult r = g.scan();
  EXPECT_EQ(r.peeled, 1u);  // the Tarjan fallback ran on {1, 2}
  EXPECT_EQ(r.process_cycle_edges, 0u);
  EXPECT_TRUE(r.lap.empty());
}

TEST(CycleScan, CycleBetweenAcyclicPrefixAndTailCountsExactly) {
  Graph g(8, 1, 1);
  g.proc(0, 1);  // prefix
  g.proc(1, 2);
  g.adv(0, 2);
  g.proc(2, 3);  // cycle 2 → 3 → 4 → 2
  g.adv(3, 4);
  g.proc(4, 2);
  g.adv(2, 3);  // a parallel adversary edge on the cycle
  g.proc(4, 5);  // tail, reachable from the cycle, so it does not peel
  g.proc(5, 6);
  g.proc(3, 7);
  const CycleScanResult r = g.scan();
  EXPECT_EQ(r.process_cycle_edges, 2u);
  EXPECT_EQ(r.peeled, 2u);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> want{
      {2, 3}, {3, 4}, {4, 2}};
  EXPECT_EQ(hops(g, r), want);
}

TEST(CycleScan, DisjointSccsAddUp) {
  Graph g(7, 1, 2);
  g.edge(0, 1, true, 1);  // SCC A = {1, 2}: two process edges
  g.edge(1, 2, true, 1);
  g.edge(2, 1, true, 0);
  g.edge(2, 3, true, 0);  // SCC B = {3, 4, 5}: two process edges
  g.edge(3, 4, true, 1);
  g.edge(4, 5, false, 0);
  g.edge(5, 3, true, 1);
  g.edge(5, 6, true, 0);
  const CycleScanResult r = g.scan();
  EXPECT_EQ(r.process_cycle_edges, 4u);
  // List 0 comes first, so its 2 → 1 is the chosen edge.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> want{{2, 1},
                                                                   {1, 2}};
  EXPECT_EQ(hops(g, r), want);
}

// ---------------------------------------------------------------------
// Random graphs against a brute-force oracle: edge u → v lies on a cycle
// iff v reaches u, and a state peels iff no state on a cycle reaches it.
// ---------------------------------------------------------------------

TEST(CycleScan, RandomGraphsMatchReachabilityOracle) {
  util::Xoshiro256 rng(0x5eedc7c1e5ULL);
  std::uint64_t with_cycle = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.below(12));
    const auto bits = static_cast<std::uint32_t>(rng.below(3));
    Graph g(n, bits, 1 + rng.below(3));
    const std::uint64_t m = rng.below(2 * std::uint64_t{n} + 2);
    for (std::uint64_t i = 0; i < m; ++i) {
      g.edge(static_cast<std::uint32_t>(rng.below(n)),
             static_cast<std::uint32_t>(rng.below(n)), rng.below(2) == 0,
             rng.below(g.lists.size()));
    }

    // reach[a][b]: b reachable from a in zero or more steps.
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (std::uint32_t v = 0; v < n; ++v) reach[v][v] = true;
    for (const auto& l : g.lists) {
      for (const CycleEdge& e : l) {
        reach[g.node(e.source())][g.node(e.to)] = true;
      }
    }
    for (std::uint32_t k = 0; k < n; ++k) {
      for (std::uint32_t a = 0; a < n; ++a) {
        for (std::uint32_t b = 0; b < n; ++b) {
          if (reach[a][k] && reach[k][b]) reach[a][b] = true;
        }
      }
    }
    std::uint64_t want_count = 0;
    const CycleEdge* want_key = nullptr;
    std::vector<bool> on_cycle(n, false);
    for (const auto& l : g.lists) {
      for (const CycleEdge& e : l) {
        const std::uint32_t u = g.node(e.source()), v = g.node(e.to);
        if (!reach[v][u]) continue;
        on_cycle[u] = true;
        if (!e.process_step()) continue;
        ++want_count;
        if (want_key == nullptr) want_key = &e;
      }
    }
    std::uint64_t want_peeled = 0;
    std::vector<bool> peels(n, false);
    for (std::uint32_t x = 0; x < n; ++x) {
      bool below_cycle = false;
      for (std::uint32_t c = 0; c < n; ++c) {
        below_cycle = below_cycle || (on_cycle[c] && reach[c][x]);
      }
      peels[x] = !below_cycle;
      if (!below_cycle) ++want_peeled;
    }
    // A peeled state's predecessors all peel too, so its round is the
    // longest path to it, relaxed here over the peeled states (n passes
    // suffice: no path among them repeats a state).
    std::vector<std::uint32_t> longest_to(n, 0);
    for (std::uint32_t pass = 0; pass < n; ++pass) {
      for (const auto& l : g.lists) {
        for (const CycleEdge& e : l) {
          const std::uint32_t u = g.node(e.source()), v = g.node(e.to);
          if (peels[u] && peels[v]) {
            longest_to[v] = std::max(longest_to[v], longest_to[u] + 1);
          }
        }
      }
    }
    std::uint32_t want_rounds = 0;
    for (std::uint32_t x = 0; x < n; ++x) {
      if (peels[x]) want_rounds = std::max(want_rounds, longest_to[x] + 1);
    }

    const CycleScanResult r = g.scan();
    ASSERT_EQ(r.process_cycle_edges, want_count) << "trial " << trial;
    ASSERT_EQ(r.peeled, want_peeled) << "trial " << trial;
    ASSERT_EQ(r.peel_rounds, want_rounds) << "trial " << trial;
    if (want_key == nullptr) {
      ASSERT_TRUE(r.lap.empty()) << "trial " << trial;
      continue;
    }
    ++with_cycle;
    ASSERT_FALSE(r.lap.empty()) << "trial " << trial;
    EXPECT_EQ(r.lap.front(), want_key) << "trial " << trial;
    EXPECT_TRUE(r.lap.front()->process_step());
    for (std::size_t i = 0; i + 1 < r.lap.size(); ++i) {
      ASSERT_EQ(r.lap[i]->to, r.lap[i + 1]->source()) << "trial " << trial;
    }
    EXPECT_EQ(r.lap.back()->to, r.lap.front()->source()) << "trial " << trial;
    // The way back v → … → u is a shortest one.
    const std::uint32_t u = g.node(want_key->source()),
                        v = g.node(want_key->to);
    std::vector<std::uint32_t> dist(n, n + 1);
    std::vector<std::uint32_t> queue{v};
    dist[v] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const auto& l : g.lists) {
        for (const CycleEdge& e : l) {
          const std::uint32_t x = g.node(e.source()), y = g.node(e.to);
          if (x != queue[head] || dist[y] <= n) continue;
          dist[y] = dist[x] + 1;
          queue.push_back(y);
        }
      }
    }
    EXPECT_EQ(r.lap.size(), 1 + dist[u]) << "trial " << trial;
  }
  EXPECT_GT(with_cycle, 300u);  // the oracle saw both outcomes
}

// ---------------------------------------------------------------------
// Engine pin.  The nontermination count and witness of frontier runs on
// one thread, hashed (FNV-1a 64) over violations_by_kind,
// violations_found and the witness schedule.  The constants were recorded
// before the engine moved onto this scan; a change to the scan that
// moves a count or the chosen witness must update them AND bump
// verify::Cache::kFormatVersion.  One thread only: on several the
// frontier's witness already varies from run to run.
// ---------------------------------------------------------------------

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string nontermination_digest(const verify::Report& report) {
  std::string s;
  for (const auto& [kind, count] : report.violations_by_kind) {
    s += std::string(to_string(kind)) + "=" + std::to_string(count) + ";";
  }
  s += "found=" + std::to_string(report.violations_found) + ";witness=";
  if (report.violation) {
    for (const Choice& c : report.violation->schedule) s += c.to_string() + ",";
  }
  return s;
}

struct PinnedJob {
  std::string name;
  verify::JobSpec spec;
  std::uint64_t states;
  std::uint64_t cyclic_process_edges;
  std::uint64_t hash_frontier;
};

std::vector<PinnedJob> pinned_jobs() {
  const auto job = [](std::string protocol, model::FaultKind kind,
                      std::uint32_t n) {
    verify::JobSpec spec;
    spec.protocol = std::move(protocol);
    spec.kind = kind;
    spec.t = model::kUnbounded;
    spec.processes = n;
    spec.stop_at_first_violation = false;
    spec.threads = 1;
    return spec;
  };
  return {
      {"retry-silent silent t=inf n=2",
       job("retry-silent", model::FaultKind::kSilent, 2), 16, 8,
       0x42630d35b3ce4bbfULL},
      {"retry-silent silent t=inf n=3",
       job("retry-silent", model::FaultKind::kSilent, 3), 62, 24,
       0xd91581d975d1440fULL},
      {"single-cas data t=inf n=3",
       job("single-cas", model::FaultKind::kDataCorruption, 3), 130, 0,
       0xa0b58fe857d410f7ULL},
      {"staged data t=inf n=2",
       job("staged", model::FaultKind::kDataCorruption, 2), 11'617, 4'728,
       0xf6a4e9575e589472ULL},
  };
}

TEST(CycleScanPin, EngineNonterminationAsRecorded) {
  for (const PinnedJob& pin : pinned_jobs()) {
    verify::JobSpec spec = pin.spec;
    spec.engine = verify::Engine::kFrontier;
    const verify::Report report = verify::execute(verify::instantiate(spec));
    ASSERT_TRUE(report.complete) << pin.name;
    EXPECT_EQ(report.states_visited, pin.states) << pin.name;
    EXPECT_EQ(report.violations_of(ViolationKind::kNontermination),
              pin.cyclic_process_edges)
        << pin.name;
    const std::uint64_t got = fnv1a64(nontermination_digest(report));
    EXPECT_EQ(got, pin.hash_frontier)
        << pin.name << ": got 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace ff::sched
