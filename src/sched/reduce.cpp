#include "sched/reduce.hpp"

#include <algorithm>
#include <cassert>

namespace ff::sched {

namespace {

/// Lexicographic comparison of two blocks inside the same word vector.
[[nodiscard]] bool block_less(const std::vector<std::uint64_t>& words,
                              std::uint32_t a_begin, std::uint32_t a_end,
                              std::uint32_t b_begin, std::uint32_t b_end) {
  return std::lexicographical_compare(
      words.begin() + a_begin, words.begin() + a_end,
      words.begin() + b_begin, words.begin() + b_end);
}

[[nodiscard]] bool block_equal(const std::vector<std::uint64_t>& a_words,
                               std::uint32_t a_begin, std::uint32_t a_end,
                               const std::vector<std::uint64_t>& b_words,
                               std::uint32_t b_begin, std::uint32_t b_end) {
  return std::equal(a_words.begin() + a_begin, a_words.begin() + a_end,
                    b_words.begin() + b_begin, b_words.begin() + b_end);
}

}  // namespace

void StateEncoder::encode(const SimWorld& world, EncodedState& out) {
  const std::uint32_t n = world.processes();
  out.words.clear();
  out.words.reserve(world.shared_words() + std::size_t{n} * 8);
  out.block_off.clear();
  out.block_off.reserve(n + 1);
  world.encode_shared(out.words);
  out.shared_len = static_cast<std::uint32_t>(out.words.size());
  for (std::uint32_t pid = 0; pid < n; ++pid) {
    out.block_off.push_back(static_cast<std::uint32_t>(out.words.size()));
    world.encode_process(pid, out.words);
  }
  out.block_off.push_back(static_cast<std::uint32_t>(out.words.size()));
}

void StateEncoder::patch(const SimWorld& child, const EncodedState& parent,
                         objects::ProcessId changed_pid, EncodedState& out) {
  assert(&out != &parent);
  out.words.assign(parent.words.begin(), parent.words.end());
  out.shared_len = parent.shared_len;
  out.block_off.assign(parent.block_off.begin(), parent.block_off.end());

  // The shared prefix has fixed length for a given configuration.
  scratch_.clear();
  child.encode_shared(scratch_);
  assert(scratch_.size() == out.shared_len);
  std::copy(scratch_.begin(), scratch_.end(), out.words.begin());

  if (changed_pid == kAdversaryPid) return;  // no block changed

  scratch_.clear();
  child.encode_process(changed_pid, scratch_);
  const std::uint32_t begin = out.block_off.at(changed_pid);
  const std::uint32_t end = out.block_off.at(changed_pid + 1);
  const auto old_len = static_cast<std::size_t>(end - begin);
  if (scratch_.size() == old_len) {
    std::copy(scratch_.begin(), scratch_.end(), out.words.begin() + begin);
    return;
  }
  // Variable-length machine encodings: splice and shift later offsets.
  const auto delta = static_cast<std::int64_t>(scratch_.size()) -
                     static_cast<std::int64_t>(old_len);
  out.words.erase(out.words.begin() + begin, out.words.begin() + end);
  out.words.insert(out.words.begin() + begin, scratch_.begin(),
                   scratch_.end());
  for (std::size_t p = changed_pid + 1; p < out.block_off.size(); ++p) {
    out.block_off[p] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(out.block_off[p]) + delta);
  }
}

void canonical_order(const EncodedState& e,
                     std::vector<std::uint32_t>& order) {
  const std::uint32_t n = e.processes();
  order.resize(n);
  for (std::uint32_t p = 0; p < n; ++p) order[p] = p;
  std::sort(order.begin(), order.end(),
            [&e](std::uint32_t a, std::uint32_t b) {
              if (block_less(e.words, e.block_off[a], e.block_off[a + 1],
                             e.block_off[b], e.block_off[b + 1])) {
                return true;
              }
              if (block_less(e.words, e.block_off[b], e.block_off[b + 1],
                             e.block_off[a], e.block_off[a + 1])) {
                return false;
              }
              return a < b;
            });
}

void canonical_slots(const EncodedState& e,
                     std::vector<std::uint32_t>& slot_of) {
  std::vector<std::uint32_t> order;
  canonical_order(e, order);
  slot_of.resize(order.size());
  for (std::uint32_t slot = 0; slot < order.size(); ++slot) {
    slot_of[order[slot]] = slot;
  }
}

detail::Fingerprint hash_block(const std::uint64_t* begin,
                               const std::uint64_t* end) {
  detail::FpFold f;
  for (const std::uint64_t* w = begin; w != end; ++w) f.fold(*w);
  return f.done();
}

detail::Fingerprint fingerprint_shared_sum(const std::uint64_t* shared,
                                           std::uint32_t shared_len,
                                           std::uint64_t sum_a,
                                           std::uint64_t sum_b) {
  detail::FpFold f;
  for (std::uint32_t i = 0; i < shared_len; ++i) f.fold(shared[i]);
  f.fold(sum_a);
  f.fold(sum_b);
  return f.done();
}

detail::Fingerprint fingerprint_state(const EncodedState& e, bool canonical) {
  if (!canonical) return detail::fingerprint(e.words);
  // Canonical fingerprint = shared prefix + an order-insensitive
  // multiset combine of per-block hashes: summing the 128-bit block
  // hashes mod 2^64 per half is permutation-invariant by construction,
  // so no block sort is needed.  Equal sums for distinct block
  // multisets are a hash collision of the same grade every fingerprint
  // table here already accepts.  Block lengths are folded into each
  // block hash (FpFold::done mixes len), so block boundaries cannot
  // alias across variable-length encodings.
  std::uint64_t sum_a = 0;
  std::uint64_t sum_b = 0;
  const std::uint32_t n = e.processes();
  for (std::uint32_t p = 0; p < n; ++p) {
    const detail::Fingerprint h =
        hash_block(e.words.data() + e.block_off[p],
                   e.words.data() + e.block_off[p + 1]);
    sum_a += h.a;
    sum_b += h.b;
  }
  return fingerprint_shared_sum(e.words.data(), e.shared_len, sum_a, sum_b);
}

std::vector<std::uint64_t> canonical_words(const EncodedState& e) {
  std::vector<std::uint64_t> out;
  out.reserve(e.words.size());
  out.insert(out.end(), e.words.begin(), e.words.begin() + e.shared_len);
  std::vector<std::uint32_t> order;
  canonical_order(e, order);
  for (const std::uint32_t p : order) {
    out.insert(out.end(), e.words.begin() + e.block_off[p],
               e.words.begin() + e.block_off[p + 1]);
  }
  return out;
}

std::optional<std::vector<std::uint32_t>> match_permutation(
    const EncodedState& base, const EncodedState& mate) {
  const std::uint32_t n = base.processes();
  if (mate.processes() != n || base.shared_len != mate.shared_len) {
    return std::nullopt;
  }
  if (!std::equal(base.words.begin(), base.words.begin() + base.shared_len,
                  mate.words.begin())) {
    return std::nullopt;
  }
  std::vector<std::uint32_t> pi(n, 0);
  std::vector<bool> used(n, false);
  for (std::uint32_t p = 0; p < n; ++p) {
    bool matched = false;
    for (std::uint32_t q = 0; q < n; ++q) {
      if (used[q]) continue;
      if (block_equal(base.words, base.block_off[p], base.block_off[p + 1],
                      mate.words, mate.block_off[q], mate.block_off[q + 1])) {
        pi[p] = q;
        used[q] = true;
        matched = true;
        break;
      }
    }
    if (!matched) return std::nullopt;
  }
  return pi;
}

std::vector<Choice> permute_pids(const std::vector<Choice>& schedule,
                                 const std::vector<std::uint32_t>& pi) {
  std::vector<Choice> out;
  out.reserve(schedule.size());
  for (Choice c : schedule) {
    if (c.pid != kAdversaryPid) c.pid = pi.at(c.pid);
    out.push_back(c);
  }
  return out;
}

std::optional<std::vector<Choice>> close_symmetric_cycle(
    const SimWorld& ancestor, const std::vector<Choice>& segment) {
  constexpr std::uint32_t kMaxLaps = 5040;
  StateEncoder enc;
  EncodedState base;
  enc.encode(ancestor, base);

  SimWorld world = ancestor;
  for (const Choice& c : segment) world.apply(c);
  EncodedState cur;
  enc.encode(world, cur);
  if (cur.words == base.words) return segment;  // exact revisit already

  const auto pi = match_permutation(base, cur);
  if (!pi) return std::nullopt;

  // world == π·ancestor (up to encoding, which is behaviourally complete),
  // so replaying π^k(segment) advances π^k·ancestor to π^{k+1}·ancestor.
  // The walk returns to the exact ancestor encoding after order(π) laps.
  std::vector<Choice> out = segment;
  std::vector<Choice> lap = segment;
  for (std::uint32_t k = 1; k < kMaxLaps; ++k) {
    lap = permute_pids(lap, *pi);
    for (const Choice& c : lap) {
      // Equivariance guarantees enabledness; guard against misuse anyway.
      if (c.pid != kAdversaryPid && world.process_done(c.pid)) {
        return std::nullopt;
      }
      world.apply(c);
      out.push_back(c);
    }
    enc.encode(world, cur);
    if (cur.words == base.words) return out;
  }
  return std::nullopt;
}

}  // namespace ff::sched
