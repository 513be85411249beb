// FaultyCas — a CAS object that may manifest one of the paper's functional
// faults (Sections 3.3-3.4) or Afek-style data corruption (Section 3.1).
//
// Fault machinery runs AT the linearization point: the object consults its
// FaultPolicy/FaultBudget and then executes exactly one atomic instruction
// whose semantics are either the correct CAS (compare_exchange) or the
// fault's deviating postcondition Φ′ (e.g. unconditional exchange for the
// overriding fault).  Faulty histories are therefore linearizable with
// respect to the *faulty* sequential specification, matching Definition 1.
//
// Budget accounting is manifestation-exact: a fault that fires but whose
// outcome happens to satisfy the standard postcondition Φ (e.g. an
// overriding fault on a CAS whose comparison would have succeeded anyway)
// is refunded, because by Definition 1 no functional fault occurred.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>

#include "faults/budget.hpp"
#include "faults/policy.hpp"
#include "faults/trace.hpp"
#include "model/cas_semantics.hpp"
#include "model/fault_kind.hpp"
#include "model/value.hpp"
#include "objects/cas_object.hpp"
#include "util/cacheline.hpp"
#include "util/rng.hpp"

namespace ff::faults {

/// Thrown by the real-thread path when a nonresponsive fault fires: the
/// operation "never returns", which a thread harness models by unwinding
/// the protocol invocation.  The deterministic simulator instead simply
/// stops scheduling the process.
class NonresponsiveError : public std::runtime_error {
 public:
  NonresponsiveError(objects::ObjectId obj, objects::ProcessId caller)
      : std::runtime_error("nonresponsive CAS fault"),
        object(obj),
        process(caller) {}

  objects::ObjectId object;
  objects::ProcessId process;
};

class FaultyCas final : public objects::CasObject {
 public:
  /// Produces the value an arbitrary fault / data corruption writes,
  /// given the per-object invocation index.
  using ArbitrarySource = std::function<model::Word(std::uint64_t op_index)>;

  /// Produces the corrupted output of an invisible fault; must return a
  /// value different from its argument.
  using InvisibleCorruptor = std::function<model::Value(model::Value before)>;

  /// `policy` and `budget` are borrowed (shared across the object set of
  /// one experiment) and may be null: a null policy never faults; a null
  /// budget places no (f, t) accounting on this object.
  FaultyCas(objects::ObjectId id, model::FaultKind kind,
            FaultPolicy* policy, FaultBudget* budget,
            TraceSink* sink = nullptr, std::uint64_t seed = 0x5eed)
      : CasObject(id, std::string(model::to_string(kind)) + "-cas"),
        kind_(kind),
        policy_(policy),
        budget_(budget),
        sink_(sink),
        seed_(seed),
        word_(model::Value::bottom().raw()) {
    arbitrary_ = [s = seed_](std::uint64_t op) {
      return util::mix64(s ^ util::mix64(op + 1));
    };
    invisible_ = model::invisible_return;
  }

  void set_arbitrary_source(ArbitrarySource src) {
    arbitrary_ = std::move(src);
  }
  void set_invisible_corruptor(InvisibleCorruptor c) {
    invisible_ = std::move(c);
  }

  [[nodiscard]] model::FaultKind kind() const noexcept { return kind_; }

  model::Value cas(model::Value expected, model::Value desired,
                   objects::ProcessId caller) override {
    // With a sink attached, the linearization point and the sink's seq
    // assignment must act as one atomic unit: otherwise two concurrent
    // invocations can linearize in one order but reach the sink in the
    // other, and the recorded seq order is not a valid linearization.
    // The per-object lock closes that window; untraced objects keep the
    // bare atomic fast path.
    if (sink_ != nullptr) {
      const std::lock_guard<std::mutex> lock(trace_mu_);
      return cas_impl(expected, desired, caller);
    }
    return cas_impl(expected, desired, caller);
  }

 private:
  model::Value cas_impl(model::Value expected, model::Value desired,
                        objects::ProcessId caller) {
    const std::uint64_t op =
        op_counter_->fetch_add(1, std::memory_order_relaxed);
    const bool want = kind_ != model::FaultKind::kNone && policy_ != nullptr &&
                      policy_->should_fault(id(), caller, op);

    CasEvent ev;
    ev.object = id();
    ev.caller = caller;
    ev.op_index = op;
    ev.call = {expected, desired};

    if (!want) {
      exec_correct(expected, desired, ev);
    } else {
      switch (kind_) {
        case model::FaultKind::kOverriding:
          exec_overriding(expected, desired, ev);
          break;
        case model::FaultKind::kSilent:
          exec_silent(expected, desired, ev);
          break;
        case model::FaultKind::kInvisible:
          exec_invisible(expected, desired, ev);
          break;
        case model::FaultKind::kArbitrary:
          exec_arbitrary(expected, desired, op, ev);
          break;
        case model::FaultKind::kNonresponsive:
          if (consume()) {
            ev.fired = model::FaultKind::kNonresponsive;
            ev.manifested = true;
            const model::Value now = debug_read();
            ev.obs = {now, now, model::Value::bottom()};
            emit(ev);
            throw NonresponsiveError(id(), caller);
          }
          exec_correct(expected, desired, ev);
          break;
        case model::FaultKind::kDataCorruption:
          exec_data_corruption(expected, desired, op, ev);
          break;
        case model::FaultKind::kNone:
          exec_correct(expected, desired, ev);
          break;
      }
    }

    emit(ev);
    return ev.obs.returned;
  }

 public:
  [[nodiscard]] model::Value debug_read() const override {
    return model::Value::of(word_.load(std::memory_order_acquire));
  }

  void reset(model::Value initial = model::Value::bottom()) override {
    word_.store(initial.raw(), std::memory_order_release);
    op_counter_->store(0, std::memory_order_relaxed);
  }

  /// Adversary/test API: corrupts the register content right now,
  /// independent of any operation — a raw Afek-model data fault.  Returns
  /// the displaced value.  Not accounted against the (f,t) budget; callers
  /// modelling budgeted data faults must account explicitly.
  model::Value corrupt_now(model::Value garbage) {
    const model::Word old =
        word_.exchange(garbage.raw(), std::memory_order_acq_rel);
    return model::Value::of(old);
  }

 private:
  bool consume() {
    return budget_ == nullptr || budget_->try_consume(id());
  }
  void refund() {
    if (budget_ != nullptr) budget_->refund(id());
  }
  void emit(const CasEvent& ev) {
    if (sink_ != nullptr) sink_->on_cas(ev);
  }

  void exec_correct(model::Value expected, model::Value desired,
                    CasEvent& ev) {
    model::Word observed = expected.raw();
    const bool ok = word_.compare_exchange_strong(observed, desired.raw(),
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire);
    const auto before = model::Value::of(observed);
    ev.obs = {before, ok ? desired : before, before};
  }

  void exec_overriding(model::Value expected, model::Value desired,
                       CasEvent& ev) {
    // Try the correct CAS first: an overriding fault on a successful
    // comparison is indistinguishable from correct execution, so it must
    // not consume budget (Definition 1: Φ still holds).
    model::Word observed = expected.raw();
    if (word_.compare_exchange_strong(observed, desired.raw(),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      const auto before = model::Value::of(observed);
      ev.obs = {before, desired, before};
      return;
    }
    if (!consume()) {
      // Budget exhausted: the failed compare_exchange above IS the
      // correct execution of this invocation.
      const auto before = model::Value::of(observed);
      ev.obs = {before, before, before};
      return;
    }
    // Φ′: R = val ∧ old = R′ — write unconditionally.
    const auto before = model::Value::of(
        word_.exchange(desired.raw(), std::memory_order_acq_rel));
    ev.obs = {before, desired, before};
    ev.fired = model::FaultKind::kOverriding;
    // Not manifested when Φ held after all: the content raced back to
    // `expected`, or it already equalled `desired` (overwriting a value
    // with itself is indistinguishable from a correct failed CAS).
    ev.manifested = !model::satisfies_phi(ev.obs, ev.call);
    if (!ev.manifested) refund();
  }

  void exec_silent(model::Value expected, model::Value desired,
                   CasEvent& ev) {
    if (!consume()) {
      exec_correct(expected, desired, ev);
      return;
    }
    // Linearize at a plain load.  If the content equals `expected`, a
    // correct CAS would have written — refusing to is the silent fault.
    // Otherwise the observation coincides with a correct failed CAS.
    const auto before =
        model::Value::of(word_.load(std::memory_order_acquire));
    ev.obs = {before, before, before};
    ev.fired = model::FaultKind::kSilent;
    // Manifests only when a correct CAS would have changed the content:
    // the comparison matched AND the desired value differs.
    ev.manifested = !model::satisfies_phi(ev.obs, ev.call);
    if (!ev.manifested) refund();
  }

  void exec_invisible(model::Value expected, model::Value desired,
                      CasEvent& ev) {
    if (!consume()) {
      exec_correct(expected, desired, ev);
      return;
    }
    exec_correct(expected, desired, ev);
    const model::Value corrupted = invisible_(ev.obs.before);
    ev.obs.returned = corrupted;
    ev.fired = model::FaultKind::kInvisible;
    ev.manifested = !model::satisfies_phi(ev.obs, ev.call);
    if (!ev.manifested) refund();
  }

  void exec_arbitrary(model::Value expected, model::Value desired,
                      std::uint64_t op, CasEvent& ev) {
    if (!consume()) {
      exec_correct(expected, desired, ev);
      return;
    }
    const auto garbage = model::Value::of(arbitrary_(op));
    const auto before = model::Value::of(
        word_.exchange(garbage.raw(), std::memory_order_acq_rel));
    ev.obs = {before, garbage, before};
    ev.fired = model::FaultKind::kArbitrary;
    ev.manifested = !model::satisfies_phi(ev.obs, ev.call);
    if (!ev.manifested) refund();
  }

  void exec_data_corruption(model::Value expected, model::Value desired,
                            std::uint64_t op, CasEvent& ev) {
    if (!consume()) {
      exec_correct(expected, desired, ev);
      return;
    }
    // Afek model: the register content is replaced at an arbitrary moment
    // independent of operations.  Piggybacking on this invocation's timing
    // is one legal placement; corrupt, then run the CAS correctly.
    corrupt_now(model::Value::of(arbitrary_(op)));
    exec_correct(expected, desired, ev);
    ev.fired = model::FaultKind::kDataCorruption;
    ev.manifested = true;
  }

  const model::FaultKind kind_;
  FaultPolicy* const policy_;
  FaultBudget* const budget_;
  TraceSink* const sink_;
  const std::uint64_t seed_;
  ArbitrarySource arbitrary_;
  InvisibleCorruptor invisible_;

  alignas(util::kCacheLineSize) std::atomic<model::Word> word_;
  util::Padded<std::atomic<std::uint64_t>> op_counter_{};
  /// Serializes traced invocations so the sink's seq order is a valid
  /// linearization order (held only when `sink_` is attached).
  std::mutex trace_mu_;
};

}  // namespace ff::faults
