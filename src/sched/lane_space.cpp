#include "sched/lane_space.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace ff::sched {

namespace {

using detail::Fingerprint;
using detail::FlatFpMap;
using detail::FpFold;

/// SimWorld::encode_process's block separator.
constexpr std::uint64_t kBlockSeparator = 0xFEEDFACEFEEDFACEULL;
constexpr std::uint64_t kLaneMask = 0xFFFFFFFFull;
constexpr std::uint64_t kKilledBit = std::uint64_t{1} << 48;

[[nodiscard]] std::uint32_t lane_of(std::uint64_t w) {
  return static_cast<std::uint32_t>(w);
}
[[nodiscard]] std::uint32_t crashes_of(std::uint64_t w) {
  return static_cast<std::uint32_t>((w >> 32) & 0xFFFFu);
}
[[nodiscard]] bool killed_of(std::uint64_t w) { return (w & kKilledBit) != 0; }
[[nodiscard]] std::uint64_t pid_word(std::uint32_t lane, std::uint32_t crashes,
                                     bool killed) {
  return std::uint64_t{lane} | (std::uint64_t{crashes & 0xFFFFu} << 32) |
         (killed ? kKilledBit : 0);
}
[[nodiscard]] std::uint64_t with_lane(std::uint64_t w, std::uint32_t lane) {
  return (w & ~kLaneMask) | lane;
}

}  // namespace

// ---------------------------------------------------------------------------
// LaneArena.
// ---------------------------------------------------------------------------

LaneArena::~LaneArena() {
  for (std::size_t lane = 0; lane < size_; ++lane) {
    delete[] meta(static_cast<std::uint32_t>(lane)).words;
  }
  for (auto& c : meta_chunks_) delete[] c.load(std::memory_order_relaxed);
  for (auto& c : machine_chunks_) delete[] c.load(std::memory_order_relaxed);
}

StepMachine* LaneArena::machine_of(std::uint32_t lane) const {
  return machine_chunks_[lane >> kChunkBits]
      .load(std::memory_order_acquire)[lane & (kChunk - 1)]
      .get();
}

std::uint32_t LaneArena::root_lane(const StepMachine& machine,
                                   objects::ProcessId pid) {
  std::lock_guard<std::mutex> g(mu_);
  return intern_machine(machine.clone(), pid);
}

std::uint32_t LaneArena::resolve_deliver(std::uint32_t lane,
                                         std::uint64_t returned) {
  std::lock_guard<std::mutex> g(mu_);
  const Fingerprint key = memo_key(lane, returned);
  const std::uint32_t hit = deliver_memo_.find(key);
  if (hit != FlatFpMap::kNoValue) {
    ++memo_hits_;
    return hit;
  }
  std::unique_ptr<StepMachine> next = machine_of(lane)->clone();
  next->deliver(model::Value::of(returned));
  const std::uint32_t next_lane = intern_machine(std::move(next), meta(lane).pid);
  deliver_memo_.insert_or_get(key, next_lane);
  ++stepped_;
  return next_lane;
}

std::uint32_t LaneArena::resolve_crash(std::uint32_t lane) {
  std::lock_guard<std::mutex> g(mu_);
  const Fingerprint key = memo_key(lane, 0);
  const std::uint32_t hit = crash_memo_.find(key);
  if (hit != FlatFpMap::kNoValue) {
    ++memo_hits_;
    return hit;
  }
  std::unique_ptr<StepMachine> next = machine_of(lane)->clone();
  next->crash();
  const std::uint32_t next_lane = intern_machine(std::move(next), meta(lane).pid);
  crash_memo_.insert_or_get(key, next_lane);
  return next_lane;
}

LaneArena::Stats LaneArena::stats() {
  std::lock_guard<std::mutex> g(mu_);
  return Stats{size_, memo_hits_, stepped_};
}

std::uint64_t LaneArena::bytes() {
  std::lock_guard<std::mutex> g(mu_);
  std::uint64_t total = chunks_ * kChunk * (sizeof(void*) + sizeof(LaneMeta));
  total += (intern_.capacity() + deliver_memo_.capacity() +
            crash_memo_.capacity()) *
           24;
  total += machine_words_ * sizeof(std::uint64_t);
  return total;
}

bool LaneArena::reserve_lane() {
  const std::size_t chunk = size_ >> kChunkBits;
  if (chunk >= kMaxChunks) return false;
  if ((size_ & (kChunk - 1)) == 0 &&
      meta_chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
    meta_chunks_[chunk].store(new LaneMeta[kChunk], std::memory_order_release);
    machine_chunks_[chunk].store(new std::unique_ptr<StepMachine>[kChunk],
                                 std::memory_order_release);
    ++chunks_;
  }
  return true;
}

std::uint32_t LaneArena::intern_machine(std::unique_ptr<StepMachine> machine,
                                        objects::ProcessId pid) {
  FpFold f;
  f.fold(std::uint64_t{pid} + 1);
  enc_scratch_.clear();
  machine->encode(enc_scratch_);
  for (const std::uint64_t w : enc_scratch_) f.fold(w);
  const Fingerprint key = f.done();
  const std::uint32_t existing = intern_.find(key);
  if (existing != FlatFpMap::kNoValue) return existing;
  if (enc_scratch_.size() > std::numeric_limits<std::uint16_t>::max() ||
      !reserve_lane()) {
    overflow_.store(true, std::memory_order_relaxed);
    return 0;
  }
  const auto lane = static_cast<std::uint32_t>(size_);
  intern_.insert_or_get(key, lane);
  auto* words = new std::uint64_t[enc_scratch_.size()];
  std::copy(enc_scratch_.begin(), enc_scratch_.end(), words);
  LaneMeta m;
  m.pid = pid;
  m.done = machine->done();
  m.op = m.done ? PendingOp{OpType::kNone, 0, model::Value::bottom(),
                            model::Value::of(machine->decision())}
                : machine->next_op();
  m.can_crash = machine->can_crash();
  m.words = words;
  m.words_len = static_cast<std::uint16_t>(enc_scratch_.size());
  meta_chunks_[lane >> kChunkBits].load(
      std::memory_order_relaxed)[lane & (kChunk - 1)] = m;
  machine_chunks_[lane >> kChunkBits].load(
      std::memory_order_relaxed)[lane & (kChunk - 1)] = std::move(machine);
  machine_words_ += enc_scratch_.size();
  ++size_;
  return lane;
}

// ---------------------------------------------------------------------------
// LaneSpace.
// ---------------------------------------------------------------------------

struct LaneSpace::View {
  const LaneSpace& s;
  const std::uint64_t* state;

  [[nodiscard]] std::uint64_t word(objects::ProcessId pid) const {
    return state[s.S_ + pid];
  }
  [[nodiscard]] const LaneMeta& meta(objects::ProcessId pid) const {
    return s.arena_->meta(lane_of(word(pid)));
  }

  [[nodiscard]] std::uint32_t processes() const { return s.n_; }
  /// A halted lane's op is kNone already (LaneMeta).
  [[nodiscard]] PendingOp pending(objects::ProcessId pid) const {
    return killed(pid) ? PendingOp::none() : meta(pid).op;
  }
  [[nodiscard]] std::uint32_t crashes(objects::ProcessId pid) const {
    return crashes_of(word(pid));
  }
  [[nodiscard]] bool can_crash(objects::ProcessId pid) const {
    return meta(pid).can_crash;
  }
  [[nodiscard]] bool killed(objects::ProcessId pid) const {
    return killed_of(word(pid));
  }
  [[nodiscard]] std::optional<std::uint64_t> decision(
      objects::ProcessId pid) const {
    const LaneMeta& m = meta(pid);
    if (!m.done) return std::nullopt;
    return m.decision();
  }
  [[nodiscard]] model::Value object(objects::ObjectId id) const {
    return model::Value::of(state[id]);
  }
  /// The state holds the capped count min(used, t), which reaches t
  /// exactly when used does; with t = ∞ it is 0.
  [[nodiscard]] std::uint64_t faults(objects::ObjectId id) const {
    return state[s.objects_ + s.registers_ + id];
  }
  [[nodiscard]] model::Value reg(objects::ObjectId id) const {
    return model::Value::of(state[s.objects_ + id]);
  }
};

LaneSpace::LaneSpace(const SimWorld& root, LaneArena& arena, bool sym,
                     bool killed_is_violation)
    : arena_(&arena),
      rule_(root.rule()),
      sym_(sym),
      killed_is_violation_(killed_is_violation),
      S_(root.shared_words()),
      n_(root.processes()),
      objects_(rule_.config().num_objects),
      registers_(rule_.config().num_registers) {}

void LaneSpace::state_of(const SimWorld& world, std::uint64_t* out) const {
  std::vector<std::uint64_t> shared;
  world.encode_shared(shared);
  assert(shared.size() == S_);
  std::copy(shared.begin(), shared.end(), out);
  for (std::uint32_t pid = 0; pid < n_; ++pid) {
    out[S_ + pid] = pid_word(arena_->root_lane(world.machine(pid), pid),
                             world.crashes_used(pid), world.killed(pid));
  }
}

void LaneSpace::bump_fault(std::uint64_t* shared,
                           objects::ObjectId obj) const {
  const std::uint32_t t = rule_.config().t;
  if (t == model::kUnbounded) return;
  std::uint64_t& w = shared[objects_ + registers_ + obj];
  if (w < t) ++w;
}

void LaneSpace::enabled(const std::uint64_t* state, std::vector<Choice>& out,
                        LaneCache& cache) const {
  out.clear();
  rule_.enabled(View{*this, state}, out, cache.immunity_checks,
                cache.immunity_skips);
}

std::uint32_t LaneSpace::deliver(std::uint32_t lane, std::uint64_t returned,
                                 LaneCache& cache) const {
  const Fingerprint key = memo_key(lane, returned);
  const std::uint32_t hit = cache.deliver_cache.find(key);
  if (hit != FlatFpMap::kNoValue) {
    ++cache.memo_hits;
    return hit;
  }
  const std::uint32_t next = arena_->resolve_deliver(lane, returned);
  cache.deliver_cache.insert_or_get(key, next);
  return next;
}

std::uint32_t LaneSpace::crash(std::uint32_t lane, LaneCache& cache) const {
  const Fingerprint key = memo_key(lane, 0);
  const std::uint32_t hit = cache.crash_cache.find(key);
  if (hit != FlatFpMap::kNoValue) {
    ++cache.memo_hits;
    return hit;
  }
  const std::uint32_t next = arena_->resolve_crash(lane);
  cache.crash_cache.insert_or_get(key, next);
  return next;
}

void LaneSpace::apply(const std::uint64_t* state, const Choice& choice,
                      std::uint64_t* out, LaneCache& cache) const {
  const StepOutcome o = rule_.outcome(View{*this, state}, choice);
  std::memcpy(out, state, stride() * sizeof(std::uint64_t));
  // Objects sit at [0, O), registers at [O, O+R).
  if (o.target == StepOutcome::Target::kObject) {
    out[o.index] = o.written.raw();
  } else if (o.target == StepOutcome::Target::kRegister) {
    out[objects_ + o.index] = o.written.raw();
  }
  if (o.charge) bump_fault(out, o.index);
  if (choice.pid == kAdversaryPid) return;
  std::uint64_t& pw = out[S_ + choice.pid];
  if (o.crash) {
    pw = pid_word(crash(lane_of(pw), cache), crashes_of(pw) + 1,
                  killed_of(pw));
  } else if (o.kill) {
    pw |= kKilledBit;
  } else {
    pw = with_lane(pw, deliver(lane_of(pw), o.returned.raw(), cache));
  }
}

template <typename Sink>
void LaneSpace::block_words(std::uint64_t pid_word, Sink&& sink) const {
  sink(kBlockSeparator);
  sink(killed_of(pid_word) ? 1 : 0);
  // The crash counter is in the block only when crashes are enabled.
  if (rule_.config().crash_budget > 0) sink(crashes_of(pid_word));
  const LaneMeta& m = arena_->meta(lane_of(pid_word));
  for (std::uint32_t i = 0; i < m.words_len; ++i) sink(m.words[i]);
}

Fingerprint LaneSpace::block_hash(std::uint64_t pid_word,
                                  LaneCache& cache) const {
  const auto compute = [&] {
    FpFold f;
    block_words(pid_word, [&f](std::uint64_t w) { f.fold(w); });
    return f.done();
  };
  // The dense index covers lanes × crash counts × the kill flag; lanes
  // past the cap (runaway scalar protocols) hash uncached.
  constexpr std::size_t kBlockMemoCap = std::size_t{1} << 21;
  const std::size_t idx =
      ((std::size_t{lane_of(pid_word)} * (rule_.config().crash_budget + 1) +
        crashes_of(pid_word))
       << 1) |
      (killed_of(pid_word) ? 1 : 0);
  if (idx >= kBlockMemoCap) return compute();
  std::vector<Fingerprint>& memo = cache.block_hash_memo;
  if (idx >= memo.size()) {
    memo.resize(std::max<std::size_t>(idx + 1, memo.size() * 2),
                Fingerprint{0, 0});
  }
  Fingerprint& slot = memo[idx];
  if (slot.a == 0 && slot.b == 0) slot = compute();
  return slot;
}

Fingerprint LaneSpace::fingerprint(const std::uint64_t* state,
                                   LaneCache& cache) const {
  if (sym_) {
    std::uint64_t sum_a = 0;
    std::uint64_t sum_b = 0;
    for (std::uint32_t pid = 0; pid < n_; ++pid) {
      const Fingerprint h = block_hash(state[S_ + pid], cache);
      sum_a += h.a;
      sum_b += h.b;
    }
    return fingerprint_shared_sum(state, S_, sum_a, sum_b);
  }
  // detail::fingerprint(encode()) without materializing the encoding.
  FpFold f;
  for (std::uint32_t i = 0; i < S_; ++i) f.fold(state[i]);
  for (std::uint32_t pid = 0; pid < n_; ++pid) {
    block_words(state[S_ + pid], [&f](std::uint64_t w) { f.fold(w); });
  }
  return f.done();
}

void LaneSpace::encode(const std::uint64_t* state, EncodedState& out) const {
  out.words.assign(state, state + S_);
  out.shared_len = S_;
  out.block_off.clear();
  out.block_off.push_back(S_);
  for (std::uint32_t pid = 0; pid < n_; ++pid) {
    block_words(state[S_ + pid],
                [&out](std::uint64_t w) { out.words.push_back(w); });
    out.block_off.push_back(static_cast<std::uint32_t>(out.words.size()));
  }
}

bool LaneSpace::terminal(const std::uint64_t* state) const {
  for (std::uint32_t pid = 0; pid < n_; ++pid) {
    const std::uint64_t pw = state[S_ + pid];
    if (!killed_of(pw) && !arena_->meta(lane_of(pw)).done) return false;
  }
  return true;
}

TerminalVerdict LaneSpace::verdict(const std::uint64_t* state) const {
  return rule_.judge(View{*this, state}, killed_is_violation_);
}

}  // namespace ff::sched
