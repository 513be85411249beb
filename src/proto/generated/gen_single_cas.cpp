// @generated by ffgen -- DO NOT EDIT; regenerate with tools/ffgen.
// checksum: ce61ae4499882a60
//
// Machines for protocol "single-cas" — straight-line compilation of its proto::Program grid
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

// single-cas (default params) — fingerprint 0x3e386cd2df04bb46
class M_single_cas final : public sched::StepMachine {
 public:
  M_single_cas(objects::ProcessId /*pid*/, std::uint64_t input) {
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
    return std::make_unique<M_single_cas>(*this);
  }

  static std::unique_ptr<sched::StepMachine> make(
      objects::ProcessId pid, std::uint64_t input) {
    return std::make_unique<M_single_cas>(pid, input);
  }

 private:
  void deliver_raw(std::uint64_t v) {
    switch (pc_) {
      case 0u:
        l2_ = v;
        advance(1u);
        return;
      default:
        return;
    }
  }

  void advance(std::uint32_t entry) {
    switch (entry) {
      case 0u: goto L0;
      case 1u: goto L1;
      default: return;
    }
  L0:
    pc_ = 0u;
    pending_ = sched::PendingOp::cas(
        static_cast<objects::ObjectId>(0ull),
        model::Value::of(0xffffffffffffffffull),
        model::Value::of(l1_));
    return;
  L1:
    l1_ = ((((l2_ == 0xffffffffffffffffull) ? 1ull : 0ull) != 0ull) ? l1_ : l2_);
    l0_ = 1ull;
    pc_ = 3u;
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

const GenEntry* ff_gen_entries_single_cas(std::size_t& count) {
  static const GenEntry kEntries[] = {
      {0x3e386cd2df04bb46ull, &M_single_cas::make},
  };
  count = sizeof(kEntries) / sizeof(kEntries[0]);
  return kEntries;
}

}  // namespace ff::proto::gen
