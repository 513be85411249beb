// @generated by ffgen -- DO NOT EDIT; regenerate with tools/ffgen.
// checksum: 23f8f67b82034778
//
// Machines for protocol "f-plus-one" — straight-line compilation of its proto::Program grid
// points.  See src/proto/genapi.hpp for the runtime seam and
// tools/ffgen for the emitter.
#include "proto/genapi.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "model/value.hpp"
#include "objects/shared_object.hpp"
#include "sched/program.hpp"
#include "sched/step.hpp"

namespace ff::proto::gen {
namespace {

// f-plus-one (k1) — fingerprint 0x1ea84b5ca7d24cf9
class M_f_plus_one_k1 final : public sched::StepMachine {
 public:
  M_f_plus_one_k1(objects::ProcessId /*pid*/, std::uint64_t input) {
    l0_ = 0ull;
    l1_ = input;
    l2_ = 0ull;
    advance(0u);
  }

  [[nodiscard]] sched::PendingOp next_op() const override {
    return pending_;
  }

  void deliver(model::Value returned) override {
    deliver_raw(returned.raw());
  }

  [[nodiscard]] bool done() const override { return halted_; }
  [[nodiscard]] std::uint64_t decision() const override {
    return decision_;
  }

  void encode(std::vector<std::uint64_t>& out) const override {
    out.push_back(l0_);
    out.push_back(l1_);
  }

  [[nodiscard]] std::unique_ptr<sched::StepMachine> clone() const override {
    return std::make_unique<M_f_plus_one_k1>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_f_plus_one_k1>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 1u:
        l2_ = v;
        advance(2u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 2u: goto L2;
      default: return;
    }
  L0:
    if (((l0_ >= 1ull) ? 1ull : 0ull) != 0ull) goto L5;
    pc_ = 1u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(l0_),
        model::Value::of(0xffffffffffffffffull),
        model::Value::of(l1_));
    return;
  L2:
    l1_ = ((((l2_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) ? l1_ : l2_);
    l0_ = (l0_ + 1ull);
    goto L0;
  L5:
    pc_ = 5u;
    decision_ = l1_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

// f-plus-one (k2) — fingerprint 0xe5771968e93e3954
class M_f_plus_one_k2 final : public sched::StepMachine {
 public:
  M_f_plus_one_k2(objects::ProcessId /*pid*/, std::uint64_t input) {
    l0_ = 0ull;
    l1_ = input;
    l2_ = 0ull;
    advance(0u);
  }

  [[nodiscard]] sched::PendingOp next_op() const override {
    return pending_;
  }

  void deliver(model::Value returned) override {
    deliver_raw(returned.raw());
  }

  [[nodiscard]] bool done() const override { return halted_; }
  [[nodiscard]] std::uint64_t decision() const override {
    return decision_;
  }

  void encode(std::vector<std::uint64_t>& out) const override {
    out.push_back(l0_);
    out.push_back(l1_);
  }

  [[nodiscard]] std::unique_ptr<sched::StepMachine> clone() const override {
    return std::make_unique<M_f_plus_one_k2>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_f_plus_one_k2>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 1u:
        l2_ = v;
        advance(2u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 2u: goto L2;
      default: return;
    }
  L0:
    if (((l0_ >= 2ull) ? 1ull : 0ull) != 0ull) goto L5;
    pc_ = 1u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(l0_),
        model::Value::of(0xffffffffffffffffull),
        model::Value::of(l1_));
    return;
  L2:
    l1_ = ((((l2_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) ? l1_ : l2_);
    l0_ = (l0_ + 1ull);
    goto L0;
  L5:
    pc_ = 5u;
    decision_ = l1_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

// f-plus-one (k3) — fingerprint 0x8036088ea2e8b796
class M_f_plus_one_k3 final : public sched::StepMachine {
 public:
  M_f_plus_one_k3(objects::ProcessId /*pid*/, std::uint64_t input) {
    l0_ = 0ull;
    l1_ = input;
    l2_ = 0ull;
    advance(0u);
  }

  [[nodiscard]] sched::PendingOp next_op() const override {
    return pending_;
  }

  void deliver(model::Value returned) override {
    deliver_raw(returned.raw());
  }

  [[nodiscard]] bool done() const override { return halted_; }
  [[nodiscard]] std::uint64_t decision() const override {
    return decision_;
  }

  void encode(std::vector<std::uint64_t>& out) const override {
    out.push_back(l0_);
    out.push_back(l1_);
  }

  [[nodiscard]] std::unique_ptr<sched::StepMachine> clone() const override {
    return std::make_unique<M_f_plus_one_k3>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_f_plus_one_k3>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 1u:
        l2_ = v;
        advance(2u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 2u: goto L2;
      default: return;
    }
  L0:
    if (((l0_ >= 3ull) ? 1ull : 0ull) != 0ull) goto L5;
    pc_ = 1u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(l0_),
        model::Value::of(0xffffffffffffffffull),
        model::Value::of(l1_));
    return;
  L2:
    l1_ = ((((l2_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) ? l1_ : l2_);
    l0_ = (l0_ + 1ull);
    goto L0;
  L5:
    pc_ = 5u;
    decision_ = l1_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

// f-plus-one (k4) — fingerprint 0xf2617886dc7f0501
class M_f_plus_one_k4 final : public sched::StepMachine {
 public:
  M_f_plus_one_k4(objects::ProcessId /*pid*/, std::uint64_t input) {
    l0_ = 0ull;
    l1_ = input;
    l2_ = 0ull;
    advance(0u);
  }

  [[nodiscard]] sched::PendingOp next_op() const override {
    return pending_;
  }

  void deliver(model::Value returned) override {
    deliver_raw(returned.raw());
  }

  [[nodiscard]] bool done() const override { return halted_; }
  [[nodiscard]] std::uint64_t decision() const override {
    return decision_;
  }

  void encode(std::vector<std::uint64_t>& out) const override {
    out.push_back(l0_);
    out.push_back(l1_);
  }

  [[nodiscard]] std::unique_ptr<sched::StepMachine> clone() const override {
    return std::make_unique<M_f_plus_one_k4>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_f_plus_one_k4>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 1u:
        l2_ = v;
        advance(2u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 2u: goto L2;
      default: return;
    }
  L0:
    if (((l0_ >= 4ull) ? 1ull : 0ull) != 0ull) goto L5;
    pc_ = 1u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(l0_),
        model::Value::of(0xffffffffffffffffull),
        model::Value::of(l1_));
    return;
  L2:
    l1_ = ((((l2_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) ? l1_ : l2_);
    l0_ = (l0_ + 1ull);
    goto L0;
  L5:
    pc_ = 5u;
    decision_ = l1_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

}  // namespace

const GenEntry* ff_gen_entries_f_plus_one(std::size_t& count) {
  static const GenEntry kEntries[] = {
      {0x1ea84b5ca7d24cf9ull, &M_f_plus_one_k1::make},
      {0xe5771968e93e3954ull, &M_f_plus_one_k2::make},
      {0x8036088ea2e8b796ull, &M_f_plus_one_k3::make},
      {0xf2617886dc7f0501ull, &M_f_plus_one_k4::make},
  };
  count = sizeof(kEntries) / sizeof(kEntries[0]);
  return kEntries;
}

}  // namespace ff::proto::gen
