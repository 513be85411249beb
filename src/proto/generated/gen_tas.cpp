// @generated by ffgen -- DO NOT EDIT; regenerate with tools/ffgen.
// checksum: 0d7cef09e0da2954
//
// Machines for protocol "tas" — straight-line compilation of its proto::Program grid
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

// tas (n2) — fingerprint 0x189f463ad4ce0442
class M_tas_n2 final : public sched::StepMachine {
 public:
  M_tas_n2(objects::ProcessId pid, std::uint64_t input) {
    pid_ = static_cast<std::uint64_t>(pid);
    l0_ = 0ull;
    l1_ = input;
    l2_ = 0ull;
    l3_ = 0ull;
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
    return std::make_unique<M_tas_n2>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_tas_n2>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 0u:
        l3_ = v;
        advance(1u);
        return;
      case 2u:
        l2_ = v;
        advance(3u);
        return;
      case 5u:
        l2_ = v;
        advance(6u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 1u: goto L1;
      case 3u: goto L3;
      case 6u: goto L6;
      default: return;
    }
  L0:
    pc_ = 0u;
    pending_ = sched::PendingOp::reg_write(
        static_cast<objects::ObjectId>(pid_),
        model::Value::of(l1_));
    return;
  L1:
    l0_ = 1ull;
    pc_ = 2u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(0ull),
        model::Value::of(0xffffffffffffffffull),
        model::Value::of(1ull));
    return;
  L3:
    if (((l2_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) goto L9;
    l0_ = 2ull;
    pc_ = 5u;
    pending_ = sched::PendingOp::reg_read(
        static_cast<objects::ObjectId>(((((pid_ < 2ull) ? 1ull : 0ull) != 0ull) ? (1ull - pid_) : 0ull)));
    return;
  L6:
    l1_ = l2_;
    l0_ = 3ull;
    pc_ = 8u;
    decision_ = l1_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  L9:
    l0_ = 3ull;
    pc_ = 10u;
    decision_ = l1_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint64_t l3_ = 0;
  std::uint64_t pid_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

// tas (n3) — fingerprint 0xcdcb2f29f24d974a
class M_tas_n3 final : public sched::StepMachine {
 public:
  M_tas_n3(objects::ProcessId pid, std::uint64_t input) {
    pid_ = static_cast<std::uint64_t>(pid);
    l0_ = 0ull;
    l1_ = input;
    l2_ = 0ull;
    l3_ = 0ull;
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
    return std::make_unique<M_tas_n3>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_tas_n3>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 0u:
        l3_ = v;
        advance(1u);
        return;
      case 2u:
        l2_ = v;
        advance(3u);
        return;
      case 5u:
        l2_ = v;
        advance(6u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 1u: goto L1;
      case 3u: goto L3;
      case 6u: goto L6;
      default: return;
    }
  L0:
    pc_ = 0u;
    pending_ = sched::PendingOp::reg_write(
        static_cast<objects::ObjectId>(pid_),
        model::Value::of(l1_));
    return;
  L1:
    l0_ = 1ull;
    pc_ = 2u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(0ull),
        model::Value::of(0xffffffffffffffffull),
        model::Value::of(1ull));
    return;
  L3:
    if (((l2_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) goto L9;
    l0_ = 2ull;
    pc_ = 5u;
    pending_ = sched::PendingOp::reg_read(
        static_cast<objects::ObjectId>(((((pid_ < 2ull) ? 1ull : 0ull) != 0ull) ? (1ull - pid_) : 0ull)));
    return;
  L6:
    l1_ = l2_;
    l0_ = 3ull;
    pc_ = 8u;
    decision_ = l1_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  L9:
    l0_ = 3ull;
    pc_ = 10u;
    decision_ = l1_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint64_t l3_ = 0;
  std::uint64_t pid_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

// tas (n4) — fingerprint 0x78a1b2ae373f6a23
class M_tas_n4 final : public sched::StepMachine {
 public:
  M_tas_n4(objects::ProcessId pid, std::uint64_t input) {
    pid_ = static_cast<std::uint64_t>(pid);
    l0_ = 0ull;
    l1_ = input;
    l2_ = 0ull;
    l3_ = 0ull;
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
    return std::make_unique<M_tas_n4>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_tas_n4>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 0u:
        l3_ = v;
        advance(1u);
        return;
      case 2u:
        l2_ = v;
        advance(3u);
        return;
      case 5u:
        l2_ = v;
        advance(6u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 1u: goto L1;
      case 3u: goto L3;
      case 6u: goto L6;
      default: return;
    }
  L0:
    pc_ = 0u;
    pending_ = sched::PendingOp::reg_write(
        static_cast<objects::ObjectId>(pid_),
        model::Value::of(l1_));
    return;
  L1:
    l0_ = 1ull;
    pc_ = 2u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(0ull),
        model::Value::of(0xffffffffffffffffull),
        model::Value::of(1ull));
    return;
  L3:
    if (((l2_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) goto L9;
    l0_ = 2ull;
    pc_ = 5u;
    pending_ = sched::PendingOp::reg_read(
        static_cast<objects::ObjectId>(((((pid_ < 2ull) ? 1ull : 0ull) != 0ull) ? (1ull - pid_) : 0ull)));
    return;
  L6:
    l1_ = l2_;
    l0_ = 3ull;
    pc_ = 8u;
    decision_ = l1_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  L9:
    l0_ = 3ull;
    pc_ = 10u;
    decision_ = l1_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint64_t l3_ = 0;
  std::uint64_t pid_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

// tas (n5) — fingerprint 0xf2b0a08f0d83873a
class M_tas_n5 final : public sched::StepMachine {
 public:
  M_tas_n5(objects::ProcessId pid, std::uint64_t input) {
    pid_ = static_cast<std::uint64_t>(pid);
    l0_ = 0ull;
    l1_ = input;
    l2_ = 0ull;
    l3_ = 0ull;
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
    return std::make_unique<M_tas_n5>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_tas_n5>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 0u:
        l3_ = v;
        advance(1u);
        return;
      case 2u:
        l2_ = v;
        advance(3u);
        return;
      case 5u:
        l2_ = v;
        advance(6u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 1u: goto L1;
      case 3u: goto L3;
      case 6u: goto L6;
      default: return;
    }
  L0:
    pc_ = 0u;
    pending_ = sched::PendingOp::reg_write(
        static_cast<objects::ObjectId>(pid_),
        model::Value::of(l1_));
    return;
  L1:
    l0_ = 1ull;
    pc_ = 2u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(0ull),
        model::Value::of(0xffffffffffffffffull),
        model::Value::of(1ull));
    return;
  L3:
    if (((l2_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) goto L9;
    l0_ = 2ull;
    pc_ = 5u;
    pending_ = sched::PendingOp::reg_read(
        static_cast<objects::ObjectId>(((((pid_ < 2ull) ? 1ull : 0ull) != 0ull) ? (1ull - pid_) : 0ull)));
    return;
  L6:
    l1_ = l2_;
    l0_ = 3ull;
    pc_ = 8u;
    decision_ = l1_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  L9:
    l0_ = 3ull;
    pc_ = 10u;
    decision_ = l1_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint64_t l3_ = 0;
  std::uint64_t pid_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

}  // namespace

const GenEntry* ff_gen_entries_tas(std::size_t& count) {
  static const GenEntry kEntries[] = {
      {0x189f463ad4ce0442ull, &M_tas_n2::make},
      {0xcdcb2f29f24d974aull, &M_tas_n3::make},
      {0x78a1b2ae373f6a23ull, &M_tas_n4::make},
      {0xf2b0a08f0d83873aull, &M_tas_n5::make},
  };
  count = sizeof(kEntries) / sizeof(kEntries[0]);
  return kEntries;
}

}  // namespace ff::proto::gen
