// @generated by ffgen -- DO NOT EDIT; regenerate with tools/ffgen.
// checksum: 2abfe3b01695cc68
//
// Machines for protocol "staged" — straight-line compilation of its proto::Program grid
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

// staged (f1t1) — fingerprint 0xdd01f5e09cc70b3a
class M_staged_f1t1 final : public sched::StepMachine {
 public:
  M_staged_f1t1(objects::ProcessId /*pid*/, std::uint64_t input) {
    l0_ = 0ull;
    l1_ = 0ull;
    l2_ = 0ull;
    l3_ = 0xffffffffffffffffull;
    l4_ = (input & 0xffffffffull);
    l5_ = 0ull;
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
    out.push_back(l2_);
    out.push_back(l3_);
    out.push_back(l4_);
  }

  [[nodiscard]] std::unique_ptr<sched::StepMachine> clone() const override {
    return std::make_unique<M_staged_f1t1>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_staged_f1t1>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 1u:
        l5_ = v;
        advance(2u);
        return;
      case 20u:
        l5_ = v;
        advance(21u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 2u: goto L2;
      case 21u: goto L21;
      default: return;
    }
  L0:
    if (((l0_ == 1ull) ? 1ull : 0ull) != 0ull) goto L20;
  L1:
    pc_ = 1u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(l1_),
        model::Value::of(l3_),
        model::Value::of((((l2_ & 0xffffffffull) << 32) | (l4_ & 0xffffffffull))));
    return;
  L2:
    if (((l5_ == l3_) ? 1ull : 0ull) != 0ull) goto L11;
    if ((((((((l5_ == 0xffffffffffffffffull) ? 1ull : 0ull) == 0ull) ? 1ull : 0ull) != 0ull) && ((((l5_ >> 32) >= l2_) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull) goto L6;
    l3_ = l5_;
    goto L1;
  L6:
    l4_ = (l5_ & 0xffffffffull);
    l2_ = (l5_ >> 32);
    if (((l2_ == 5ull) ? 1ull : 0ull) != 0ull) goto L25;
    l3_ = (((((l5_ >> 32) - 1ull) & 0xffffffffull) << 32) | ((l5_ & 0xffffffffull) & 0xffffffffull));
    goto L11;
  L11:
    l1_ = (l1_ + 1ull);
    if (((l1_ < 1ull) ? 1ull : 0ull) != 0ull) goto L1;
    l3_ = (((l2_ & 0xffffffffull) << 32) | (((((l3_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) ? 0xfffffffeull : (l3_ & 0xffffffffull)) & 0xffffffffull));
    l2_ = (l2_ + 1ull);
    l1_ = 0ull;
    if (((l2_ >= 5ull) ? 1ull : 0ull) != 0ull) goto L18;
    goto L1;
  L18:
    l0_ = 1ull;
    goto L20;
  L20:
    pc_ = 20u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(0ull),
        model::Value::of(l3_),
        model::Value::of((((5ull & 0xffffffffull) << 32) | (l4_ & 0xffffffffull))));
    return;
  L21:
    if ((((((l5_ != l3_) ? 1ull : 0ull) != 0ull) && ((((((l5_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) || ((((l5_ >> 32) < 5ull) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull) goto L23;
    goto L25;
  L23:
    l3_ = l5_;
    goto L20;
  L25:
    l0_ = 2ull;
    pc_ = 26u;
    decision_ = l4_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint64_t l3_ = 0;
  std::uint64_t l4_ = 0;
  std::uint64_t l5_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

// staged (f1t2) — fingerprint 0x1e49657a1be39697
class M_staged_f1t2 final : public sched::StepMachine {
 public:
  M_staged_f1t2(objects::ProcessId /*pid*/, std::uint64_t input) {
    l0_ = 0ull;
    l1_ = 0ull;
    l2_ = 0ull;
    l3_ = 0xffffffffffffffffull;
    l4_ = (input & 0xffffffffull);
    l5_ = 0ull;
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
    out.push_back(l2_);
    out.push_back(l3_);
    out.push_back(l4_);
  }

  [[nodiscard]] std::unique_ptr<sched::StepMachine> clone() const override {
    return std::make_unique<M_staged_f1t2>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_staged_f1t2>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 1u:
        l5_ = v;
        advance(2u);
        return;
      case 20u:
        l5_ = v;
        advance(21u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 2u: goto L2;
      case 21u: goto L21;
      default: return;
    }
  L0:
    if (((l0_ == 1ull) ? 1ull : 0ull) != 0ull) goto L20;
  L1:
    pc_ = 1u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(l1_),
        model::Value::of(l3_),
        model::Value::of((((l2_ & 0xffffffffull) << 32) | (l4_ & 0xffffffffull))));
    return;
  L2:
    if (((l5_ == l3_) ? 1ull : 0ull) != 0ull) goto L11;
    if ((((((((l5_ == 0xffffffffffffffffull) ? 1ull : 0ull) == 0ull) ? 1ull : 0ull) != 0ull) && ((((l5_ >> 32) >= l2_) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull) goto L6;
    l3_ = l5_;
    goto L1;
  L6:
    l4_ = (l5_ & 0xffffffffull);
    l2_ = (l5_ >> 32);
    if (((l2_ == 0xaull) ? 1ull : 0ull) != 0ull) goto L25;
    l3_ = (((((l5_ >> 32) - 1ull) & 0xffffffffull) << 32) | ((l5_ & 0xffffffffull) & 0xffffffffull));
    goto L11;
  L11:
    l1_ = (l1_ + 1ull);
    if (((l1_ < 1ull) ? 1ull : 0ull) != 0ull) goto L1;
    l3_ = (((l2_ & 0xffffffffull) << 32) | (((((l3_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) ? 0xfffffffeull : (l3_ & 0xffffffffull)) & 0xffffffffull));
    l2_ = (l2_ + 1ull);
    l1_ = 0ull;
    if (((l2_ >= 0xaull) ? 1ull : 0ull) != 0ull) goto L18;
    goto L1;
  L18:
    l0_ = 1ull;
    goto L20;
  L20:
    pc_ = 20u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(0ull),
        model::Value::of(l3_),
        model::Value::of((((0xaull & 0xffffffffull) << 32) | (l4_ & 0xffffffffull))));
    return;
  L21:
    if ((((((l5_ != l3_) ? 1ull : 0ull) != 0ull) && ((((((l5_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) || ((((l5_ >> 32) < 0xaull) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull) goto L23;
    goto L25;
  L23:
    l3_ = l5_;
    goto L20;
  L25:
    l0_ = 2ull;
    pc_ = 26u;
    decision_ = l4_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint64_t l3_ = 0;
  std::uint64_t l4_ = 0;
  std::uint64_t l5_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

// staged (f1t3) — fingerprint 0xcfb774eafdfc7df2
class M_staged_f1t3 final : public sched::StepMachine {
 public:
  M_staged_f1t3(objects::ProcessId /*pid*/, std::uint64_t input) {
    l0_ = 0ull;
    l1_ = 0ull;
    l2_ = 0ull;
    l3_ = 0xffffffffffffffffull;
    l4_ = (input & 0xffffffffull);
    l5_ = 0ull;
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
    out.push_back(l2_);
    out.push_back(l3_);
    out.push_back(l4_);
  }

  [[nodiscard]] std::unique_ptr<sched::StepMachine> clone() const override {
    return std::make_unique<M_staged_f1t3>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_staged_f1t3>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 1u:
        l5_ = v;
        advance(2u);
        return;
      case 20u:
        l5_ = v;
        advance(21u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 2u: goto L2;
      case 21u: goto L21;
      default: return;
    }
  L0:
    if (((l0_ == 1ull) ? 1ull : 0ull) != 0ull) goto L20;
  L1:
    pc_ = 1u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(l1_),
        model::Value::of(l3_),
        model::Value::of((((l2_ & 0xffffffffull) << 32) | (l4_ & 0xffffffffull))));
    return;
  L2:
    if (((l5_ == l3_) ? 1ull : 0ull) != 0ull) goto L11;
    if ((((((((l5_ == 0xffffffffffffffffull) ? 1ull : 0ull) == 0ull) ? 1ull : 0ull) != 0ull) && ((((l5_ >> 32) >= l2_) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull) goto L6;
    l3_ = l5_;
    goto L1;
  L6:
    l4_ = (l5_ & 0xffffffffull);
    l2_ = (l5_ >> 32);
    if (((l2_ == 0xfull) ? 1ull : 0ull) != 0ull) goto L25;
    l3_ = (((((l5_ >> 32) - 1ull) & 0xffffffffull) << 32) | ((l5_ & 0xffffffffull) & 0xffffffffull));
    goto L11;
  L11:
    l1_ = (l1_ + 1ull);
    if (((l1_ < 1ull) ? 1ull : 0ull) != 0ull) goto L1;
    l3_ = (((l2_ & 0xffffffffull) << 32) | (((((l3_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) ? 0xfffffffeull : (l3_ & 0xffffffffull)) & 0xffffffffull));
    l2_ = (l2_ + 1ull);
    l1_ = 0ull;
    if (((l2_ >= 0xfull) ? 1ull : 0ull) != 0ull) goto L18;
    goto L1;
  L18:
    l0_ = 1ull;
    goto L20;
  L20:
    pc_ = 20u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(0ull),
        model::Value::of(l3_),
        model::Value::of((((0xfull & 0xffffffffull) << 32) | (l4_ & 0xffffffffull))));
    return;
  L21:
    if ((((((l5_ != l3_) ? 1ull : 0ull) != 0ull) && ((((((l5_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) || ((((l5_ >> 32) < 0xfull) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull) goto L23;
    goto L25;
  L23:
    l3_ = l5_;
    goto L20;
  L25:
    l0_ = 2ull;
    pc_ = 26u;
    decision_ = l4_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint64_t l3_ = 0;
  std::uint64_t l4_ = 0;
  std::uint64_t l5_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

// staged (f2t1) — fingerprint 0x726299200e255564
class M_staged_f2t1 final : public sched::StepMachine {
 public:
  M_staged_f2t1(objects::ProcessId /*pid*/, std::uint64_t input) {
    l0_ = 0ull;
    l1_ = 0ull;
    l2_ = 0ull;
    l3_ = 0xffffffffffffffffull;
    l4_ = (input & 0xffffffffull);
    l5_ = 0ull;
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
    out.push_back(l2_);
    out.push_back(l3_);
    out.push_back(l4_);
  }

  [[nodiscard]] std::unique_ptr<sched::StepMachine> clone() const override {
    return std::make_unique<M_staged_f2t1>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_staged_f2t1>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 1u:
        l5_ = v;
        advance(2u);
        return;
      case 20u:
        l5_ = v;
        advance(21u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 2u: goto L2;
      case 21u: goto L21;
      default: return;
    }
  L0:
    if (((l0_ == 1ull) ? 1ull : 0ull) != 0ull) goto L20;
  L1:
    pc_ = 1u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(l1_),
        model::Value::of(l3_),
        model::Value::of((((l2_ & 0xffffffffull) << 32) | (l4_ & 0xffffffffull))));
    return;
  L2:
    if (((l5_ == l3_) ? 1ull : 0ull) != 0ull) goto L11;
    if ((((((((l5_ == 0xffffffffffffffffull) ? 1ull : 0ull) == 0ull) ? 1ull : 0ull) != 0ull) && ((((l5_ >> 32) >= l2_) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull) goto L6;
    l3_ = l5_;
    goto L1;
  L6:
    l4_ = (l5_ & 0xffffffffull);
    l2_ = (l5_ >> 32);
    if (((l2_ == 0xcull) ? 1ull : 0ull) != 0ull) goto L25;
    l3_ = (((((l5_ >> 32) - 1ull) & 0xffffffffull) << 32) | ((l5_ & 0xffffffffull) & 0xffffffffull));
    goto L11;
  L11:
    l1_ = (l1_ + 1ull);
    if (((l1_ < 2ull) ? 1ull : 0ull) != 0ull) goto L1;
    l3_ = (((l2_ & 0xffffffffull) << 32) | (((((l3_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) ? 0xfffffffeull : (l3_ & 0xffffffffull)) & 0xffffffffull));
    l2_ = (l2_ + 1ull);
    l1_ = 0ull;
    if (((l2_ >= 0xcull) ? 1ull : 0ull) != 0ull) goto L18;
    goto L1;
  L18:
    l0_ = 1ull;
    goto L20;
  L20:
    pc_ = 20u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(0ull),
        model::Value::of(l3_),
        model::Value::of((((0xcull & 0xffffffffull) << 32) | (l4_ & 0xffffffffull))));
    return;
  L21:
    if ((((((l5_ != l3_) ? 1ull : 0ull) != 0ull) && ((((((l5_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) || ((((l5_ >> 32) < 0xcull) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull) goto L23;
    goto L25;
  L23:
    l3_ = l5_;
    goto L20;
  L25:
    l0_ = 2ull;
    pc_ = 26u;
    decision_ = l4_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint64_t l3_ = 0;
  std::uint64_t l4_ = 0;
  std::uint64_t l5_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

// staged (f2t2) — fingerprint 0x0a18db91fba7329d
class M_staged_f2t2 final : public sched::StepMachine {
 public:
  M_staged_f2t2(objects::ProcessId /*pid*/, std::uint64_t input) {
    l0_ = 0ull;
    l1_ = 0ull;
    l2_ = 0ull;
    l3_ = 0xffffffffffffffffull;
    l4_ = (input & 0xffffffffull);
    l5_ = 0ull;
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
    out.push_back(l2_);
    out.push_back(l3_);
    out.push_back(l4_);
  }

  [[nodiscard]] std::unique_ptr<sched::StepMachine> clone() const override {
    return std::make_unique<M_staged_f2t2>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_staged_f2t2>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 1u:
        l5_ = v;
        advance(2u);
        return;
      case 20u:
        l5_ = v;
        advance(21u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 2u: goto L2;
      case 21u: goto L21;
      default: return;
    }
  L0:
    if (((l0_ == 1ull) ? 1ull : 0ull) != 0ull) goto L20;
  L1:
    pc_ = 1u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(l1_),
        model::Value::of(l3_),
        model::Value::of((((l2_ & 0xffffffffull) << 32) | (l4_ & 0xffffffffull))));
    return;
  L2:
    if (((l5_ == l3_) ? 1ull : 0ull) != 0ull) goto L11;
    if ((((((((l5_ == 0xffffffffffffffffull) ? 1ull : 0ull) == 0ull) ? 1ull : 0ull) != 0ull) && ((((l5_ >> 32) >= l2_) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull) goto L6;
    l3_ = l5_;
    goto L1;
  L6:
    l4_ = (l5_ & 0xffffffffull);
    l2_ = (l5_ >> 32);
    if (((l2_ == 0x18ull) ? 1ull : 0ull) != 0ull) goto L25;
    l3_ = (((((l5_ >> 32) - 1ull) & 0xffffffffull) << 32) | ((l5_ & 0xffffffffull) & 0xffffffffull));
    goto L11;
  L11:
    l1_ = (l1_ + 1ull);
    if (((l1_ < 2ull) ? 1ull : 0ull) != 0ull) goto L1;
    l3_ = (((l2_ & 0xffffffffull) << 32) | (((((l3_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) ? 0xfffffffeull : (l3_ & 0xffffffffull)) & 0xffffffffull));
    l2_ = (l2_ + 1ull);
    l1_ = 0ull;
    if (((l2_ >= 0x18ull) ? 1ull : 0ull) != 0ull) goto L18;
    goto L1;
  L18:
    l0_ = 1ull;
    goto L20;
  L20:
    pc_ = 20u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(0ull),
        model::Value::of(l3_),
        model::Value::of((((0x18ull & 0xffffffffull) << 32) | (l4_ & 0xffffffffull))));
    return;
  L21:
    if ((((((l5_ != l3_) ? 1ull : 0ull) != 0ull) && ((((((l5_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) || ((((l5_ >> 32) < 0x18ull) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull) goto L23;
    goto L25;
  L23:
    l3_ = l5_;
    goto L20;
  L25:
    l0_ = 2ull;
    pc_ = 26u;
    decision_ = l4_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint64_t l3_ = 0;
  std::uint64_t l4_ = 0;
  std::uint64_t l5_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

// staged (f3t2) — fingerprint 0x75ab5227dd44ab39
class M_staged_f3t2 final : public sched::StepMachine {
 public:
  M_staged_f3t2(objects::ProcessId /*pid*/, std::uint64_t input) {
    l0_ = 0ull;
    l1_ = 0ull;
    l2_ = 0ull;
    l3_ = 0xffffffffffffffffull;
    l4_ = (input & 0xffffffffull);
    l5_ = 0ull;
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
    out.push_back(l2_);
    out.push_back(l3_);
    out.push_back(l4_);
  }

  [[nodiscard]] std::unique_ptr<sched::StepMachine> clone() const override {
    return std::make_unique<M_staged_f3t2>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_staged_f3t2>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 1u:
        l5_ = v;
        advance(2u);
        return;
      case 20u:
        l5_ = v;
        advance(21u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 2u: goto L2;
      case 21u: goto L21;
      default: return;
    }
  L0:
    if (((l0_ == 1ull) ? 1ull : 0ull) != 0ull) goto L20;
  L1:
    pc_ = 1u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(l1_),
        model::Value::of(l3_),
        model::Value::of((((l2_ & 0xffffffffull) << 32) | (l4_ & 0xffffffffull))));
    return;
  L2:
    if (((l5_ == l3_) ? 1ull : 0ull) != 0ull) goto L11;
    if ((((((((l5_ == 0xffffffffffffffffull) ? 1ull : 0ull) == 0ull) ? 1ull : 0ull) != 0ull) && ((((l5_ >> 32) >= l2_) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull) goto L6;
    l3_ = l5_;
    goto L1;
  L6:
    l4_ = (l5_ & 0xffffffffull);
    l2_ = (l5_ >> 32);
    if (((l2_ == 0x2aull) ? 1ull : 0ull) != 0ull) goto L25;
    l3_ = (((((l5_ >> 32) - 1ull) & 0xffffffffull) << 32) | ((l5_ & 0xffffffffull) & 0xffffffffull));
    goto L11;
  L11:
    l1_ = (l1_ + 1ull);
    if (((l1_ < 3ull) ? 1ull : 0ull) != 0ull) goto L1;
    l3_ = (((l2_ & 0xffffffffull) << 32) | (((((l3_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) ? 0xfffffffeull : (l3_ & 0xffffffffull)) & 0xffffffffull));
    l2_ = (l2_ + 1ull);
    l1_ = 0ull;
    if (((l2_ >= 0x2aull) ? 1ull : 0ull) != 0ull) goto L18;
    goto L1;
  L18:
    l0_ = 1ull;
    goto L20;
  L20:
    pc_ = 20u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(0ull),
        model::Value::of(l3_),
        model::Value::of((((0x2aull & 0xffffffffull) << 32) | (l4_ & 0xffffffffull))));
    return;
  L21:
    if ((((((l5_ != l3_) ? 1ull : 0ull) != 0ull) && ((((((l5_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) || ((((l5_ >> 32) < 0x2aull) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull)) ? 1ull : 0ull) != 0ull) goto L23;
    goto L25;
  L23:
    l3_ = l5_;
    goto L20;
  L25:
    l0_ = 2ull;
    pc_ = 26u;
    decision_ = l4_;
    halted_ = true;
    pending_ = sched::PendingOp::none();
    return;
  }

  std::uint64_t l0_ = 0;
  std::uint64_t l1_ = 0;
  std::uint64_t l2_ = 0;
  std::uint64_t l3_ = 0;
  std::uint64_t l4_ = 0;
  std::uint64_t l5_ = 0;
  std::uint32_t pc_ = 0;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  sched::PendingOp pending_ = sched::PendingOp::none();
};

}  // namespace

const GenEntry* ff_gen_entries_staged(std::size_t& count) {
  static const GenEntry kEntries[] = {
      {0xdd01f5e09cc70b3aull, &M_staged_f1t1::make},
      {0x1e49657a1be39697ull, &M_staged_f1t2::make},
      {0xcfb774eafdfc7df2ull, &M_staged_f1t3::make},
      {0x726299200e255564ull, &M_staged_f2t1::make},
      {0x0a18db91fba7329dull, &M_staged_f2t2::make},
      {0x75ab5227dd44ab39ull, &M_staged_f3t2::make},
  };
  count = sizeof(kEntries) / sizeof(kEntries[0]);
  return kEntries;
}

}  // namespace ff::proto::gen
