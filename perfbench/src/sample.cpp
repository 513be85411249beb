#include "sample.hpp"

#include <chrono>
#include <exception>

#include "sched/reduce.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using ff::sched::Choice;
using ff::sched::EncodedState;
using ff::sched::SimWorld;
using ff::sched::StateEncoder;

namespace {

/// Walk lengths are uniform in [0, kMaxWalk).
constexpr std::uint64_t kMaxWalk = 64;
/// Timed sweeps per operation; the median is reported.
constexpr int kSweeps = 7;
/// Keeps the timed loops' results observable.
volatile std::uint64_t g_sink = 0;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t below(std::uint64_t bound) {
    state_ = mix(state_);
    return state_ % bound;
  }

 private:
  std::uint64_t state_;
};

/// True when every enabled choice of `w` applies cleanly.  A corrupted
/// value can index past an indexed protocol's objects, which SimWorld
/// reports by throwing; such states are not timed.
bool all_edges_apply(const SimWorld& w, const std::vector<Choice>& choices) {
  for (const Choice& c : choices) {
    SimWorld child = w;
    try {
      child.apply(c);
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

template <typename Fn>
double median_ns_per_op(std::uint64_t ops_per_sweep, int reps, Fn&& sweep) {
  std::vector<double> per_op;
  for (int s = 0; s < kSweeps; ++s) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) sweep();
    const std::chrono::duration<double, std::nano> took =
        std::chrono::steady_clock::now() - start;
    per_op.push_back(took.count() /
                     static_cast<double>(ops_per_sweep * static_cast<std::uint64_t>(reps)));
  }
  return median(per_op);
}

}  // namespace

std::vector<SampledState> draw_sample(const std::vector<SimWorld>& initial,
                                      const std::vector<bool>& symmetric,
                                      std::uint64_t seed) {
  std::vector<SampledState> out;
  out.reserve(kSampleStates);
  Rng rng(mix(seed ^ 0x5a3bce1d2f9e7a11ULL));
  // Bounded: a walk that ends on a terminal or unsteppable state is
  // simply retried, and every job has a steppable initial state.
  for (std::uint64_t walk = 0;
       out.size() < kSampleStates && walk < 64 * kSampleStates; ++walk) {
    const std::size_t job = walk % initial.size();
    SimWorld w = initial[job];
    const std::uint64_t length = rng.below(kMaxWalk);
    bool ok = true;
    for (std::uint64_t step = 0; step < length && ok; ++step) {
      const std::vector<Choice> choices = w.enabled();
      if (choices.empty()) break;
      SimWorld next = w;
      try {
        next.apply(choices[rng.below(choices.size())]);
      } catch (const std::exception&) {
        ok = false;
        break;
      }
      if (next.terminal()) break;
      w = std::move(next);
    }
    if (!ok) continue;
    const std::vector<Choice> choices = w.enabled();
    if (choices.empty() || !all_edges_apply(w, choices)) continue;
    const bool canonical = symmetric[job] && w.processes_symmetric();
    out.push_back({std::move(w), canonical});
  }
  return out;
}

SampleTimings time_sample(const std::vector<SampledState>& sample) {
  SampleTimings t;
  t.states = sample.size();
  if (sample.empty()) return t;

  std::vector<SimWorld> worlds;
  std::vector<std::vector<Choice>> edges;
  std::vector<EncodedState> encoded(sample.size());
  std::vector<SimWorld> children;
  std::vector<std::pair<std::size_t, ff::objects::ProcessId>> child_of;
  StateEncoder encoder;
  std::uint64_t edge_count = 0;
  std::uint64_t canonical = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    worlds.push_back(sample[i].world);
    edges.push_back(worlds.back().enabled());
    encoder.encode(worlds.back(), encoded[i]);
    canonical += sample[i].canonical ? 1 : 0;
    for (const Choice& c : edges.back()) {
      children.push_back(worlds.back());
      children.back().apply(c);
      child_of.emplace_back(i, c.pid);
    }
    edge_count += edges.back().size();
  }
  const std::uint64_t n = sample.size();
  t.edges_per_state = static_cast<double>(edge_count) / static_cast<double>(n);
  t.canonical_share = static_cast<double>(canonical) / static_cast<double>(n);

  std::uint64_t sink = 0;
  t.enabled_ns = median_ns_per_op(n, 8, [&] {
    for (const SimWorld& w : worlds) sink += w.enabled().size();
  });
  SimWorld::StepUndo undo;
  t.step_ns = median_ns_per_op(edge_count, 8, [&] {
    for (std::size_t i = 0; i < worlds.size(); ++i) {
      for (const Choice& c : edges[i]) {
        worlds[i].apply_with_undo(c, undo);
        worlds[i].undo_step(undo);
      }
    }
  });
  EncodedState scratch;
  t.encode_ns = median_ns_per_op(n, 8, [&] {
    for (const SimWorld& w : worlds) {
      encoder.encode(w, scratch);
      sink += scratch.words.size();
    }
  });
  t.patch_ns = median_ns_per_op(edge_count, 8, [&] {
    for (std::size_t k = 0; k < children.size(); ++k) {
      encoder.patch(children[k], encoded[child_of[k].first], child_of[k].second,
                    scratch);
      sink += scratch.words.size();
    }
  });
  std::vector<std::uint32_t> slots;
  t.canon_ns = median_ns_per_op(n, 32, [&] {
    for (const EncodedState& e : encoded) {
      ff::sched::canonical_slots(e, slots);
      sink += slots.size();
    }
  });
  t.fingerprint_ns = median_ns_per_op(n, 32, [&] {
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      sink += ff::sched::fingerprint_state(encoded[i], sample[i].canonical).a;
    }
  });
  g_sink = sink;
  return t;
}

}  // namespace perfbench
