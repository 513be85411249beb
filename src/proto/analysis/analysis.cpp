#include "proto/analysis/analysis.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <mutex>
#include <utility>

#include "proto/genapi.hpp"
#include "proto/machine.hpp"

namespace ff::proto::analysis {

namespace {

// ------------------------------------------------------- abstract domain

/// Small set of word constants, or ⊤.  The empty set is the lattice
/// bottom ("no value reaches here" — unreachable code).  Sets overflow
/// to ⊤ past kMaxValues, which together with the finite op count and
/// local count bounds the fixpoint lattice height.
class ValueSet {
 public:
  static constexpr std::size_t kMaxValues = 8;

  static ValueSet top() {
    ValueSet v;
    v.top_ = true;
    return v;
  }
  static ValueSet none() { return {}; }
  static ValueSet constant(Word w) {
    ValueSet v;
    v.vals_.push_back(w);
    return v;
  }
  /// {0, 1} — the exact range of every comparison/logical operator, a
  /// strictly better answer than ⊤ when an operand is unknown.
  static ValueSet boolean() {
    ValueSet v;
    v.vals_ = {0, 1};
    return v;
  }

  [[nodiscard]] bool is_top() const noexcept { return top_; }
  [[nodiscard]] bool is_none() const noexcept {
    return !top_ && vals_.empty();
  }
  [[nodiscard]] bool is_singleton() const noexcept {
    return !top_ && vals_.size() == 1;
  }
  [[nodiscard]] Word singleton() const { return vals_.front(); }
  [[nodiscard]] const std::vector<Word>& values() const noexcept {
    return vals_;
  }
  [[nodiscard]] bool contains(Word w) const {
    return top_ || std::binary_search(vals_.begin(), vals_.end(), w);
  }
  [[nodiscard]] bool may_be_nonzero() const {
    if (top_) return true;
    for (const Word w : vals_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Adds one value (⊤ past the cap).  Returns whether the set changed.
  bool insert(Word w) {
    if (top_) return false;
    const auto it = std::lower_bound(vals_.begin(), vals_.end(), w);
    if (it != vals_.end() && *it == w) return false;
    vals_.insert(it, w);
    if (vals_.size() > kMaxValues) {
      top_ = true;
      vals_.clear();
    }
    return true;
  }

  bool join(const ValueSet& o) {
    if (top_) return false;
    if (o.top_) {
      top_ = true;
      vals_.clear();
      return true;
    }
    bool changed = false;
    for (const Word w : o.vals_) {
      changed = insert(w) || changed;
      if (top_) break;
    }
    return changed;
  }

 private:
  bool top_ = false;
  std::vector<Word> vals_;  ///< sorted, unique
};

using Env = std::vector<ValueSet>;

[[nodiscard]] bool is_boolean_op(ExprOp op) noexcept {
  switch (op) {
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kGe:
    case ExprOp::kAnd:
    case ExprOp::kOr:
    case ExprOp::kNot:
    case ExprOp::kIsBottom:
      return true;
    default:
      return false;
  }
}

/// Concrete semantics of the unary operators, mirroring Program::eval.
[[nodiscard]] Word apply_unary(ExprOp op, Word a) {
  switch (op) {
    case ExprOp::kNot:
      return a == 0 ? 1 : 0;
    case ExprOp::kIsBottom:
      return a == kBottomWord ? 1 : 0;
    case ExprOp::kStage:
      return a >> 32;
    case ExprOp::kValueOf:
    case ExprOp::kU32:
      return a & 0xFFFFFFFFULL;
    default:
      assert(false && "not a unary ExprOp");
      return 0;
  }
}

/// Concrete semantics of the binary operators, mirroring Program::eval.
[[nodiscard]] Word apply_binary(ExprOp op, Word a, Word b) {
  switch (op) {
    case ExprOp::kAdd:
      return a + b;
    case ExprOp::kSub:
      return a - b;
    case ExprOp::kEq:
      return a == b ? 1 : 0;
    case ExprOp::kNe:
      return a != b ? 1 : 0;
    case ExprOp::kLt:
      return a < b ? 1 : 0;
    case ExprOp::kGe:
      return a >= b ? 1 : 0;
    case ExprOp::kAnd:
      return (a != 0 && b != 0) ? 1 : 0;
    case ExprOp::kOr:
      return (a != 0 || b != 0) ? 1 : 0;
    case ExprOp::kPack:
      return ((b & 0xFFFFFFFFULL) << 32) | (a & 0xFFFFFFFFULL);
    default:
      assert(false && "not a binary ExprOp");
      return 0;
  }
}

/// Cartesian abstract evaluation of an expression tree over a local
/// environment.  kInput/kPid are ⊤ (the analysis is input-oblivious, so
/// its facts hold for every input vector and process count).
ValueSet eval_expr(const Program& p, ExprId id, const Env& env) {
  if (id == kNoExpr) return ValueSet::top();
  const ExprNode& e = p.exprs()[id];
  switch (e.op) {
    case ExprOp::kConst:
      return ValueSet::constant(e.imm);
    case ExprOp::kInput:
    case ExprOp::kPid:
      return ValueSet::top();
    case ExprOp::kLocal:
      return env[static_cast<std::size_t>(e.imm)];
    case ExprOp::kSelect: {
      const ValueSet cond = eval_expr(p, e.a, env);
      ValueSet out = ValueSet::none();
      if (cond.may_be_nonzero()) out.join(eval_expr(p, e.b, env));
      if (cond.contains(0)) out.join(eval_expr(p, e.c, env));
      return out;
    }
    default:
      break;
  }
  const ValueSet a = eval_expr(p, e.a, env);
  if (e.b == kNoExpr) {  // unary
    if (a.is_none()) return a;
    if (a.is_top()) {
      return is_boolean_op(e.op) ? ValueSet::boolean() : ValueSet::top();
    }
    ValueSet out = ValueSet::none();
    for (const Word w : a.values()) {
      out.insert(apply_unary(e.op, w));
      if (out.is_top()) break;
    }
    return out;
  }
  const ValueSet b = eval_expr(p, e.b, env);
  if (a.is_none() || b.is_none()) return ValueSet::none();
  if (a.is_top() || b.is_top()) {
    return is_boolean_op(e.op) ? ValueSet::boolean() : ValueSet::top();
  }
  ValueSet out = ValueSet::none();
  for (const Word wa : a.values()) {
    for (const Word wb : b.values()) {
      out.insert(apply_binary(e.op, wa, wb));
      if (out.is_top()) return out;
    }
  }
  return out;
}

/// Branch-guard narrowing: when a branch condition is EXACTLY a
/// comparison of one local against a constant (the universal loop-guard
/// shape: `ge(ref i, cst k)` etc.), the environment propagated along
/// each edge may soundly drop the local's values that contradict the
/// edge — a concrete execution takes the edge only when the comparison
/// came out that way.  This path-sensitivity is what makes loop-counter
/// value sets FINITE at the loop head (without it every counted loop
/// joins an unbounded 0,1,2,… chain into ⊤), so A3's counted
/// certificates and A1's index intervals depend on it.  Conditions of
/// any other shape narrow nothing (the full env flows through).
Env narrowed(const Program& p, ExprId cond, const Env& env, bool taken) {
  const ExprNode& e = p.exprs()[cond];
  ExprOp cmp = e.op;
  if (cmp != ExprOp::kEq && cmp != ExprOp::kNe && cmp != ExprOp::kLt &&
      cmp != ExprOp::kGe) {
    return env;
  }
  const ExprNode& lhs = p.exprs()[e.a];
  const ExprNode& rhs = p.exprs()[e.b];
  std::uint16_t local = 0;
  Word k = 0;
  bool swapped = false;
  if (lhs.op == ExprOp::kLocal && rhs.op == ExprOp::kConst) {
    local = static_cast<std::uint16_t>(lhs.imm);
    k = rhs.imm;
  } else if (lhs.op == ExprOp::kConst && rhs.op == ExprOp::kLocal) {
    local = static_cast<std::uint16_t>(rhs.imm);
    k = lhs.imm;
    swapped = true;  // cst OP local: compare(k, v)
  } else {
    return env;
  }
  const ValueSet& vs = env[local];
  if (vs.is_none()) return env;
  Env out = env;
  if (vs.is_top()) {
    // ⊤ can only narrow to an enumerable set on an equality edge.
    if ((cmp == ExprOp::kEq && taken) || (cmp == ExprOp::kNe && !taken)) {
      out[local] = ValueSet::constant(k);
    }
    return out;
  }
  ValueSet kept = ValueSet::none();
  for (const Word v : vs.values()) {
    const Word cond_val = swapped ? apply_binary(cmp, k, v)
                                  : apply_binary(cmp, v, k);
    if ((cond_val != 0) == taken) kept.insert(v);
  }
  out[local] = kept;
  return out;
}

// ----------------------------------------------------------------- CFG

/// Successor pcs of op `pc` (0–2 entries; crash edges are handled
/// separately by the callers that model them).
void successors(const Program& p, std::uint32_t pc, std::uint32_t out[2],
                int& n) {
  const Op& op = p.ops()[pc];
  n = 0;
  switch (op.kind) {
    case OpKind::kHalt:
      break;
    case OpKind::kGoto:
      out[n++] = op.target;
      break;
    case OpKind::kBranch:
      out[n++] = op.target;
      if (op.target != pc + 1) out[n++] = pc + 1;
      break;
    default:
      out[n++] = pc + 1;
      break;
  }
}

/// Bitmask of the locals read by op `pc`'s operand expressions.
[[nodiscard]] std::uint32_t read_mask(const Program& p, std::uint32_t pc) {
  std::uint32_t mask = 0;
  const auto walk = [&](ExprId id, const auto& self) -> void {
    if (id == kNoExpr) return;
    const ExprNode& e = p.exprs()[id];
    if (e.op == ExprOp::kLocal) {
      mask |= 1u << static_cast<std::uint32_t>(e.imm);
      return;
    }
    if (e.op == ExprOp::kConst || e.op == ExprOp::kInput ||
        e.op == ExprOp::kPid) {
      return;
    }
    self(e.a, self);
    self(e.b, self);
    self(e.c, self);
  };
  const Op& op = p.ops()[pc];
  walk(op.index, walk);
  walk(op.expected, walk);
  walk(op.value, walk);
  return mask;
}

/// True when op `pc` defines a local (its dst is overwritten by the
/// assignment / the delivery).
[[nodiscard]] bool defines_dst(OpKind k) noexcept {
  return is_shared_op(k) || k == OpKind::kSet;
}

[[nodiscard]] const char* op_name(OpKind k) noexcept {
  switch (k) {
    case OpKind::kCas:
      return "cas";
    case OpKind::kRegRead:
      return "reg_read";
    case OpKind::kRegWrite:
      return "reg_write";
    case OpKind::kEnqueue:
      return "enqueue";
    case OpKind::kDequeue:
      return "dequeue";
    case OpKind::kSet:
      return "set";
    case OpKind::kBranch:
      return "branch";
    case OpKind::kGoto:
      return "goto";
    case OpKind::kHalt:
      return "halt";
  }
  return "?";
}

// ------------------------------------------------------------ fixpoint

/// How shared-op deliveries are modeled.
enum class Deliveries : std::uint8_t {
  /// Delivery = ⊤.  Over-approximates EVERY fault kind (arbitrary,
  /// invisible, overriding, silent, crashes) — the facts A1/A3/A4/A5
  /// derive from this fixpoint hold unconditionally.
  kUnconstrained,
  /// Overriding-closed semantics: the only writes a CAS object can
  /// experience under kOverriding (+ crashes) are desired values — by a
  /// successful CAS, by the overriding fault itself (which writes
  /// op.desired), or by the crash-after-CAS variant (the CAS effect
  /// lands).  Registers are always correct.  Only A2 may use this.
  kOverridingClosed,
};

struct Fixpoint {
  const Program& p;
  Deliveries mode;
  std::vector<Env> in;          ///< abstract env at each op's entry
  std::vector<bool> reachable;  ///< abstractly reachable pcs
  std::vector<ValueSet> objects;    ///< kOverridingClosed: V(o)
  std::vector<ValueSet> registers;  ///< kOverridingClosed: R(r)

  Fixpoint(const Program& prog, Deliveries m) : p(prog), mode(m) {
    const std::size_t n = p.ops().size();
    const std::size_t nl = p.locals().size();
    in.assign(n, Env(nl, ValueSet::none()));
    reachable.assign(n, false);
    if (mode == Deliveries::kOverridingClosed) {
      objects.assign(p.num_objects(), ValueSet::constant(kBottomWord));
      registers.assign(p.num_registers(), ValueSet::constant(kBottomWord));
    }
    run();
  }

  /// Concrete indices a shared op may address, given its abstract index.
  [[nodiscard]] std::vector<std::uint32_t> touched(const ValueSet& idx,
                                                   std::uint32_t bound) const {
    std::vector<std::uint32_t> out;
    if (idx.is_top()) {
      for (std::uint32_t i = 0; i < bound; ++i) out.push_back(i);
      return out;
    }
    for (const Word w : idx.values()) {
      if (w < bound) out.push_back(static_cast<std::uint32_t>(w));
    }
    return out;
  }

 private:
  void run() {
    const auto n = static_cast<std::uint32_t>(p.ops().size());
    std::deque<std::uint32_t> work;
    std::vector<bool> queued(n, false);
    const auto enqueue = [&](std::uint32_t pc) {
      if (!queued[pc]) {
        queued[pc] = true;
        work.push_back(pc);
      }
    };
    const auto propagate = [&](std::uint32_t to, const Env& env) {
      if (!reachable[to]) {
        in[to] = env;
        reachable[to] = true;
        enqueue(to);
        return;
      }
      bool changed = false;
      for (std::size_t l = 0; l < env.size(); ++l) {
        changed = in[to][l].join(env[l]) || changed;
      }
      if (changed) enqueue(to);
    };
    // A shared-state join makes every CAS/register read stale; re-run
    // them (their dst reads the grown set).
    const auto requeue_shared_readers = [&] {
      for (std::uint32_t pc = 0; pc < n; ++pc) {
        const OpKind k = p.ops()[pc].kind;
        if (reachable[pc] && (k == OpKind::kCas || k == OpKind::kRegRead)) {
          enqueue(pc);
        }
      }
    };

    // Entry env: initializers evaluated with input/pid = ⊤.  finalize()
    // (both modes) rejects initializers that reference locals, so the
    // eval env is irrelevant; ⊤ keeps it sound regardless.
    {
      const Env unknowns(p.locals().size(), ValueSet::top());
      Env entry(p.locals().size(), ValueSet::none());
      for (std::size_t l = 0; l < p.locals().size(); ++l) {
        entry[l] = eval_expr(p, p.locals()[l].init, unknowns);
      }
      propagate(0, entry);
    }

    const bool crashes = p.has_recovery();
    while (!work.empty()) {
      const std::uint32_t pc = work.front();
      work.pop_front();
      queued[pc] = false;
      const Op& op = p.ops()[pc];
      const Env E = in[pc];  // copy: propagate() may touch in[pc] itself
      switch (op.kind) {
        case OpKind::kHalt:
          break;
        case OpKind::kGoto:
          propagate(op.target, E);
          break;
        case OpKind::kBranch: {
          const ValueSet cond = eval_expr(p, op.value, E);
          if (cond.may_be_nonzero()) {
            propagate(op.target, narrowed(p, op.value, E, true));
          }
          if (cond.contains(0)) {
            propagate(pc + 1, narrowed(p, op.value, E, false));
          }
          break;
        }
        case OpKind::kSet: {
          Env out = E;
          out[op.dst] = eval_expr(p, op.value, E);
          propagate(pc + 1, out);
          break;
        }
        default: {  // shared ops — pause points
          // Crash edge: a crash while paused HERE wipes the volatile
          // locals to 0 and re-enters at the recovery pc.
          if (crashes) {
            Env crashed = E;
            for (std::size_t l = 0; l < crashed.size(); ++l) {
              if (!p.locals()[l].persistent) {
                crashed[l] = ValueSet::constant(0);
              }
            }
            propagate(p.recovery_pc(), crashed);
          }
          ValueSet dst = ValueSet::top();
          if (mode == Deliveries::kOverridingClosed) {
            switch (op.kind) {
              case OpKind::kCas: {
                const ValueSet idx = eval_expr(p, op.index, E);
                const ValueSet desired = eval_expr(p, op.value, E);
                dst = ValueSet::none();
                bool shared_changed = false;
                for (const std::uint32_t o : touched(idx, op.index_bound)) {
                  dst.join(objects[o]);  // delivery = old content
                  shared_changed = objects[o].join(desired) || shared_changed;
                }
                if (shared_changed) requeue_shared_readers();
                break;
              }
              case OpKind::kRegRead: {
                const ValueSet idx = eval_expr(p, op.index, E);
                dst = ValueSet::none();
                for (const std::uint32_t r : touched(idx, op.index_bound)) {
                  dst.join(registers[r]);
                }
                break;
              }
              case OpKind::kRegWrite: {
                const ValueSet idx = eval_expr(p, op.index, E);
                const ValueSet val = eval_expr(p, op.value, E);
                bool shared_changed = false;
                for (const std::uint32_t r : touched(idx, op.index_bound)) {
                  shared_changed = registers[r].join(val) || shared_changed;
                }
                if (shared_changed) requeue_shared_readers();
                dst = ValueSet::constant(kBottomWord);  // delivery scratch
                break;
              }
              default:
                break;  // queue ops: A2 is vacuous for queue clients
            }
          }
          Env out = E;
          out[op.dst] = dst;
          propagate(pc + 1, out);
          break;
        }
      }
    }
  }
};

// ------------------------------------------------------------ A3: SCCs

/// Kosaraju strongly-connected components over the op CFG.  Returns the
/// component id of each pc; `nontrivial` lists components that contain a
/// cycle (size > 1, or a self-edge).
struct SccResult {
  std::vector<std::uint32_t> comp;
  std::vector<std::vector<std::uint32_t>> members;  ///< per component
  std::vector<std::uint32_t> nontrivial;            ///< component ids
};

[[nodiscard]] SccResult compute_sccs(const Program& p) {
  const auto n = static_cast<std::uint32_t>(p.ops().size());
  std::vector<std::vector<std::uint32_t>> adj(n);
  std::vector<std::vector<std::uint32_t>> radj(n);
  std::vector<bool> self_edge(n, false);
  for (std::uint32_t pc = 0; pc < n; ++pc) {
    std::uint32_t s[2];
    int cnt = 0;
    successors(p, pc, s, cnt);
    for (int i = 0; i < cnt; ++i) {
      adj[pc].push_back(s[i]);
      radj[s[i]].push_back(pc);
      if (s[i] == pc) self_edge[pc] = true;
    }
  }
  // Pass 1: post-order over the forward graph.
  std::vector<std::uint32_t> order;
  order.reserve(n);
  {
    std::vector<std::uint8_t> state(n, 0);  // 0 new, 1 open, 2 done
    std::vector<std::pair<std::uint32_t, std::size_t>> stack;
    for (std::uint32_t root = 0; root < n; ++root) {
      if (state[root] != 0) continue;
      state[root] = 1;
      stack.emplace_back(root, 0);
      while (!stack.empty()) {
        auto& [u, i] = stack.back();
        if (i < adj[u].size()) {
          const std::uint32_t v = adj[u][i++];
          if (state[v] == 0) {
            state[v] = 1;
            stack.emplace_back(v, 0);
          }
        } else {
          state[u] = 2;
          order.push_back(u);
          stack.pop_back();
        }
      }
    }
  }
  // Pass 2: reverse-graph sweep in reverse finishing order.
  SccResult r;
  r.comp.assign(n, 0xFFFFFFFFu);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (r.comp[*it] != 0xFFFFFFFFu) continue;
    const auto cid = static_cast<std::uint32_t>(r.members.size());
    r.members.emplace_back();
    std::vector<std::uint32_t> stack{*it};
    r.comp[*it] = cid;
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      r.members[cid].push_back(u);
      for (const std::uint32_t v : radj[u]) {
        if (r.comp[v] == 0xFFFFFFFFu) {
          r.comp[v] = cid;
          stack.push_back(v);
        }
      }
    }
  }
  for (std::uint32_t cid = 0; cid < r.members.size(); ++cid) {
    auto& m = r.members[cid];
    std::sort(m.begin(), m.end());
    if (m.size() > 1 || self_edge[m.front()]) r.nontrivial.push_back(cid);
  }
  return r;
}

/// True when every cycle inside the SCC passes through one of the
/// `removed` pcs — i.e. the SCC subgraph minus those nodes is acyclic.
[[nodiscard]] bool cycles_all_pass_through(
    const Program& p, const std::vector<std::uint32_t>& scc,
    const SccResult& sccs, const std::vector<bool>& removed) {
  const std::uint32_t cid = sccs.comp[scc.front()];
  std::vector<std::uint32_t> nodes;
  for (const std::uint32_t pc : scc) {
    if (!removed[pc]) nodes.push_back(pc);
  }
  // 3-color DFS over the remaining subgraph.
  enum : std::uint8_t { kNew, kOpen, kDone };
  std::vector<std::uint8_t> state(p.ops().size(), kNew);
  const auto in_sub = [&](std::uint32_t pc) {
    return sccs.comp[pc] == cid && !removed[pc];
  };
  for (const std::uint32_t root : nodes) {
    if (state[root] != kNew) continue;
    std::vector<std::pair<std::uint32_t, int>> stack;
    state[root] = kOpen;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [u, i] = stack.back();
      std::uint32_t s[2];
      int cnt = 0;
      successors(p, u, s, cnt);
      if (i < cnt) {
        const std::uint32_t v = s[i++];
        if (!in_sub(v)) continue;
        if (state[v] == kOpen) return false;  // cycle avoiding `removed`
        if (state[v] == kNew) {
          state[v] = kOpen;
          stack.emplace_back(v, 0);
        }
      } else {
        state[u] = kDone;
        stack.pop_back();
      }
    }
  }
  return true;
}

/// Tries to certify the SCC as a counted loop: a local ℓ whose only
/// in-SCC writes are `ℓ ← ℓ + c` (constant c ≥ 1), through which every
/// in-SCC cycle passes, and whose abstract value set over the SCC is
/// finite.  Each increment strictly advances ℓ (iterates are pairwise
/// distinct far beyond the set size), and every iteration executes an
/// increment — so the loop iterates at most |value set| times.
[[nodiscard]] bool try_counted(const Program& p, const Fixpoint& agnostic,
                               const std::vector<std::uint32_t>& scc,
                               const SccResult& sccs, LoopCertificate& cert) {
  const std::size_t nl = p.locals().size();
  for (std::uint16_t l = 0; l < nl; ++l) {
    std::vector<std::uint32_t> increments;
    bool disqualified = false;
    for (const std::uint32_t pc : scc) {
      const Op& op = p.ops()[pc];
      if (!defines_dst(op.kind) || op.dst != l) continue;
      if (op.kind != OpKind::kSet) {
        disqualified = true;  // a delivery clobbers the counter
        break;
      }
      const ExprNode& e = p.exprs()[op.value];
      const bool is_increment =
          e.op == ExprOp::kAdd && e.a != kNoExpr && e.b != kNoExpr &&
          p.exprs()[e.a].op == ExprOp::kLocal && p.exprs()[e.a].imm == l &&
          p.exprs()[e.b].op == ExprOp::kConst && p.exprs()[e.b].imm >= 1 &&
          p.exprs()[e.b].imm <= 0xFFFFFFFFULL;
      if (!is_increment) {
        disqualified = true;
        break;
      }
      increments.push_back(pc);
    }
    if (disqualified || increments.empty()) continue;
    std::vector<bool> removed(p.ops().size(), false);
    for (const std::uint32_t pc : increments) removed[pc] = true;
    if (!cycles_all_pass_through(p, scc, sccs, removed)) continue;
    ValueSet range = ValueSet::none();
    for (const std::uint32_t pc : scc) {
      range.join(agnostic.in[pc][l]);
      if (range.is_top()) break;
    }
    if (range.is_top() || range.is_none()) continue;
    cert.kind = LoopCertificate::Kind::kCounted;
    cert.local = p.locals()[l].name;
    cert.bound = range.values().size();
    return true;
  }
  return false;
}

// ------------------------------------------------------------ rendering

[[nodiscard]] std::string word_str(Word w) {
  return w == kBottomWord ? std::string("bottom") : std::to_string(w);
}

[[nodiscard]] std::string pc_list(const std::vector<std::uint32_t>& pcs) {
  std::string out = "{";
  for (std::size_t i = 0; i < pcs.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(pcs[i]);
  }
  out += "}";
  return out;
}

}  // namespace

const char* verdict_name(Verdict v) noexcept {
  switch (v) {
    case Verdict::kProved:
      return "proved";
    case Verdict::kFlagged:
      return "flagged";
    case Verdict::kViolated:
      return "violated";
  }
  return "?";
}

AnalysisReport analyze(const Program& p) {
  AnalysisReport r;
  r.program = p.name();
  r.simulable = !p.uses_queue();
  r.num_ops = static_cast<std::uint32_t>(p.ops().size());
  r.num_objects = p.num_objects();
  r.has_recovery = p.has_recovery();
  const auto n = r.num_ops;
  const auto nl = static_cast<std::uint32_t>(p.locals().size());

  // Delivery-agnostic fixpoint: the substrate of A1/A3 (and sound under
  // every fault kind).
  const Fixpoint agnostic(p, Deliveries::kUnconstrained);

  // ---- A1: static footprints -----------------------------------------
  r.footprints.assign(n, StaticFootprint{});
  for (std::uint32_t pc = 0; pc < n; ++pc) {
    const Op& op = p.ops()[pc];
    if (op.kind != OpKind::kCas && op.kind != OpKind::kRegRead &&
        op.kind != OpKind::kRegWrite) {
      continue;  // local ops and queue ops keep Space::kNone
    }
    StaticFootprint& fp = r.footprints[pc];
    fp.space = op.kind == OpKind::kCas
                   ? StaticFootprint::Space::kObject
                   : StaticFootprint::Space::kRegister;
    fp.writes = op.kind != OpKind::kRegRead;
    fp.lo = 0;
    fp.hi = op.index_bound;
    ++r.shared_sites;
    if (!agnostic.reachable[pc]) continue;  // A5 will flag it; keep bound
    const ValueSet idx = eval_expr(p, op.index, agnostic.in[pc]);
    if (idx.is_singleton() && idx.singleton() < op.index_bound) {
      fp.exact = true;
      fp.lo = static_cast<std::uint32_t>(idx.singleton());
      fp.hi = fp.lo + 1;
      ++r.exact_sites;
    } else if (!idx.is_top() && !idx.is_none()) {
      Word lo = kBottomWord;
      Word hi = 0;
      for (const Word w : idx.values()) {
        lo = std::min(lo, w);
        hi = std::max(hi, w);
      }
      if (hi < op.index_bound) {
        fp.lo = static_cast<std::uint32_t>(lo);
        fp.hi = static_cast<std::uint32_t>(hi) + 1;
      }
    }
  }

  // ---- A2: overriding immunity ---------------------------------------
  if (r.simulable && p.num_objects() > 0) {
    const Fixpoint ov(p, Deliveries::kOverridingClosed);
    for (std::uint32_t o = 0; o < p.num_objects(); ++o) {
      ObjectImmunity oi;
      oi.object = o;
      // The reachable CAS sites that may address object o.
      std::vector<std::uint32_t> sites;
      for (std::uint32_t pc = 0; pc < n; ++pc) {
        const Op& op = p.ops()[pc];
        if (op.kind != OpKind::kCas || !ov.reachable[pc]) continue;
        const ValueSet idx = eval_expr(p, op.index, ov.in[pc]);
        const auto objs = ov.touched(idx, op.index_bound);
        if (std::find(objs.begin(), objs.end(), o) != objs.end()) {
          sites.push_back(pc);
        }
      }
      const ValueSet& contents = ov.objects[o];
      oi.values_top = contents.is_top();
      if (!contents.is_top()) oi.values = contents.values();
      if (sites.empty()) {
        oi.immune = true;
        oi.reason = "no reachable CAS addresses this object";
      } else if (contents.is_top()) {
        oi.reason = "content set is unbounded (top)";
      } else {
        // Immune iff for every possible content b and every CAS site,
        // every (expected, desired) pair satisfies b==e or b==d — i.e.
        // the expected set or the desired set is exactly {b}.  Then the
        // overriding manifest condition (b≠e ∧ b≠d) is unsatisfiable.
        oi.immune = true;
        for (const std::uint32_t pc : sites) {
          const Op& op = p.ops()[pc];
          const ValueSet exp = eval_expr(p, op.expected, ov.in[pc]);
          const ValueSet des = eval_expr(p, op.value, ov.in[pc]);
          for (const Word b : contents.values()) {
            const bool covered =
                (exp.is_singleton() && exp.singleton() == b) ||
                (des.is_singleton() && des.singleton() == b);
            if (!covered) {
              oi.immune = false;
              oi.reason = "CAS at pc " + std::to_string(pc) +
                          " may see content " + word_str(b) +
                          " with expected!=content and desired!=content";
              break;
            }
          }
          if (!oi.immune) break;
        }
        if (oi.immune) {
          oi.reason =
              "every reachable CAS pins expected or desired to each "
              "possible content value";
        }
      }
      if (oi.immune && o < 64) r.immune_objects |= 1ULL << o;
      r.objects.push_back(std::move(oi));
    }
  }

  // ---- A3: budget boundedness ----------------------------------------
  {
    const SccResult sccs = compute_sccs(p);
    for (const std::uint32_t cid : sccs.nontrivial) {
      LoopCertificate cert;
      cert.pcs = sccs.members[cid];
      bool has_shared = false;
      for (const std::uint32_t pc : cert.pcs) {
        if (is_shared_op(p.ops()[pc].kind)) has_shared = true;
      }
      if (!has_shared) {
        cert.kind = LoopCertificate::Kind::kPausedCycle;
        r.a3 = Verdict::kViolated;
      } else if (!try_counted(p, agnostic, cert.pcs, sccs, cert)) {
        cert.kind = LoopCertificate::Kind::kCasRetry;
        if (r.a3 == Verdict::kProved) r.a3 = Verdict::kFlagged;
      }
      r.loops.push_back(std::move(cert));
    }
  }

  // ---- A4: recovery soundness ----------------------------------------
  if (p.has_recovery()) {
    const std::uint32_t entry = p.recovery_pc();
    const std::uint32_t universe = nl >= 32 ? 0xFFFFFFFFu : (1u << nl) - 1;
    std::uint32_t persist_mask = 0;
    for (std::uint32_t l = 0; l < nl; ++l) {
      if (p.locals()[l].persistent) persist_mask |= 1u << l;
    }
    std::vector<std::uint32_t> def_in(n, universe);
    std::vector<bool> seen(n, false);
    std::deque<std::uint32_t> work;
    def_in[entry] = persist_mask;
    seen[entry] = true;
    work.push_back(entry);
    while (!work.empty()) {
      const std::uint32_t pc = work.front();
      work.pop_front();
      const Op& op = p.ops()[pc];
      std::uint32_t out = def_in[pc];
      if (defines_dst(op.kind)) out |= 1u << op.dst;
      std::uint32_t s[2];
      int cnt = 0;
      successors(p, pc, s, cnt);
      for (int i = 0; i < cnt; ++i) {
        const std::uint32_t to = s[i];
        const std::uint32_t met = seen[to] ? (def_in[to] & out) : out;
        if (!seen[to] || met != def_in[to]) {
          def_in[to] = met;
          seen[to] = true;
          work.push_back(to);
        }
      }
    }
    // A volatile local read before re-definition on some recovery path.
    std::uint32_t reported = 0;  // one witness per local keeps it short
    for (std::uint32_t pc = 0; pc < n; ++pc) {
      if (!seen[pc]) continue;
      const std::uint32_t bad =
          read_mask(p, pc) & ~def_in[pc] & ~persist_mask & universe;
      for (std::uint32_t l = 0; l < nl; ++l) {
        if ((bad & (1u << l)) == 0 || (reported & (1u << l)) != 0) continue;
        reported |= 1u << l;
        RecoveryWitness w;
        w.local = p.locals()[l].name;
        w.read_pc = pc;
        // BFS witness: entry → pc, never crossing a definition of l.
        std::vector<std::uint32_t> parent(n, 0xFFFFFFFFu);
        std::deque<std::uint32_t> q{entry};
        std::vector<bool> vis(n, false);
        vis[entry] = true;
        while (!q.empty()) {
          const std::uint32_t u = q.front();
          q.pop_front();
          if (u == pc) break;
          const Op& uop = p.ops()[u];
          if (defines_dst(uop.kind) && uop.dst == l) continue;
          std::uint32_t us[2];
          int ucnt = 0;
          successors(p, u, us, ucnt);
          for (int i = 0; i < ucnt; ++i) {
            if (!vis[us[i]]) {
              vis[us[i]] = true;
              parent[us[i]] = u;
              q.push_back(us[i]);
            }
          }
        }
        for (std::uint32_t u = pc; u != 0xFFFFFFFFu; u = parent[u]) {
          w.path.push_back(u);
          if (u == entry) break;
        }
        std::reverse(w.path.begin(), w.path.end());
        r.recovery_witnesses.push_back(std::move(w));
        r.a4 = Verdict::kViolated;
      }
    }
  }

  // ---- A5: dead code + encode coverage -------------------------------
  {
    // Syntactic reachability (every branch edge taken): unlike the
    // abstract fixpoint's, this never prunes a defensive branch, so a
    // "dead op" finding is a structural fact about the CFG.
    std::vector<bool> reach(n, false);
    std::deque<std::uint32_t> work{0};
    reach[0] = true;
    if (p.has_recovery() && !reach[p.recovery_pc()]) {
      reach[p.recovery_pc()] = true;
      work.push_back(p.recovery_pc());
    }
    while (!work.empty()) {
      const std::uint32_t pc = work.front();
      work.pop_front();
      std::uint32_t s[2];
      int cnt = 0;
      successors(p, pc, s, cnt);
      for (int i = 0; i < cnt; ++i) {
        if (!reach[s[i]]) {
          reach[s[i]] = true;
          work.push_back(s[i]);
        }
      }
    }
    for (std::uint32_t pc = 0; pc < n; ++pc) {
      if (!reach[pc]) r.unreachable_pcs.push_back(pc);
    }
    if (!r.unreachable_pcs.empty()) r.a5 = Verdict::kViolated;

    // Backward liveness (recomputed independently of finalize()), then
    // the coverage obligation: live-at-pause ⊆ encode() layout.
    std::vector<std::uint32_t> reads(n, 0);
    for (std::uint32_t pc = 0; pc < n; ++pc) reads[pc] = read_mask(p, pc);
    std::vector<std::uint32_t> live(n, 0);
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t i = n; i-- > 0;) {
        const Op& op = p.ops()[i];
        std::uint32_t out = 0;
        std::uint32_t s[2];
        int cnt = 0;
        successors(p, i, s, cnt);
        for (int k = 0; k < cnt; ++k) out |= live[s[k]];
        if (defines_dst(op.kind)) out &= ~(1u << op.dst);
        out |= reads[i];
        if (out != live[i]) {
          live[i] = out;
          changed = true;
        }
      }
    }
    std::uint32_t layout_mask = 0;
    for (const std::uint16_t l : p.layout()) layout_mask |= 1u << l;
    std::uint32_t pause_live = 0;
    for (std::uint32_t pc = 0; pc < n; ++pc) {
      const Op& op = p.ops()[pc];
      if (!is_shared_op(op.kind) && op.kind != OpKind::kHalt) continue;
      pause_live |= live[pc];
      const std::uint32_t missing = live[pc] & ~layout_mask;
      for (std::uint32_t l = 0; l < nl; ++l) {
        if ((missing & (1u << l)) == 0) continue;
        r.coverage_violations.push_back(
            CoverageViolation{pc, op_name(op.kind), p.locals()[l].name});
        r.a5 = Verdict::kViolated;
      }
    }
    for (const std::uint16_t l : p.layout()) {
      if ((pause_live & (1u << l)) == 0) {
        r.unused_layout_locals.push_back(p.locals()[l].name);
      }
    }
  }

  return r;
}

std::shared_ptr<const sched::ProgramFacts> make_facts(
    const AnalysisReport& report) {
  auto facts = std::make_shared<sched::ProgramFacts>();
  facts->immune_objects = report.immune_objects;
  return facts;
}

std::shared_ptr<const sched::ProgramFacts> program_facts(
    const Program& program) {
  return make_facts(analyze(program));
}

// --------------------------------------------------------------- reports

std::string render_human(const AnalysisReport& r) {
  std::string out;
  const auto line = [&](const std::string& s) {
    out += s;
    out += '\n';
  };
  line("ffcheck: " + r.program + " — " + std::to_string(r.num_ops) +
       " ops, " + std::to_string(r.num_objects) + " objects" +
       (r.simulable ? "" : " [queue client: not simulable]") +
       (r.has_recovery ? " [recoverable]" : ""));
  line("  A1 footprints   " + std::string(verdict_name(r.a1)) + "  " +
       std::to_string(r.exact_sites) + "/" + std::to_string(r.shared_sites) +
       " shared sites exact");
  std::uint32_t immune_count = 0;
  for (const auto& oi : r.objects) {
    if (oi.immune) ++immune_count;
  }
  line("  A2 immunity     " + std::string(verdict_name(r.a2)) + "  " +
       std::to_string(immune_count) + "/" + std::to_string(r.objects.size()) +
       " objects overriding-immune");
  for (const auto& oi : r.objects) {
    std::string vals = oi.values_top ? "top" : "{";
    if (!oi.values_top) {
      for (std::size_t i = 0; i < oi.values.size(); ++i) {
        if (i != 0) vals += ",";
        vals += word_str(oi.values[i]);
      }
      vals += "}";
    }
    line(std::string("     object ") + std::to_string(oi.object) + ": " +
         (oi.immune ? "immune" : "not immune") + ", contents " + vals +
         " — " + oi.reason);
  }
  line("  A3 boundedness  " + std::string(verdict_name(r.a3)) + "  " +
       std::to_string(r.loops.size()) + " loop(s)");
  for (const auto& loop : r.loops) {
    switch (loop.kind) {
      case LoopCertificate::Kind::kCounted:
        line("     loop " + pc_list(loop.pcs) + ": counted — at most " +
             std::to_string(loop.bound) + " iterations via counter `" +
             loop.local + "`");
        break;
      case LoopCertificate::Kind::kCasRetry:
        line("     loop " + pc_list(loop.pcs) +
             ": retry through a shared op — bounded by the fault/crash "
             "budget, not statically counted");
        break;
      case LoopCertificate::Kind::kPausedCycle:
        line("     loop " + pc_list(loop.pcs) +
             ": VIOLATION — cycle contains no shared op (could spin "
             "without pausing)");
        break;
    }
  }
  line("  A4 recovery     " + std::string(verdict_name(r.a4)) +
       (r.has_recovery ? "" : "  (no recovery entry: vacuous)"));
  for (const auto& w : r.recovery_witnesses) {
    line("     volatile `" + w.local + "` read at pc " +
         std::to_string(w.read_pc) +
         " before re-definition; witness path " + pc_list(w.path));
  }
  line("  A5 dead/layout  " + std::string(verdict_name(r.a5)));
  if (!r.unreachable_pcs.empty()) {
    line("     unreachable ops at pcs " + pc_list(r.unreachable_pcs));
  }
  for (const auto& cv : r.coverage_violations) {
    line("     local `" + cv.local + "` live at " + cv.op + " (pc " +
         std::to_string(cv.pc) + ") but missing from the encode() layout");
  }
  for (const auto& l : r.unused_layout_locals) {
    line("     note: layout local `" + l +
         "` is never live at a pause (wasted encoding word)");
  }
  return out;
}

void render_json(const AnalysisReport& r, util::JsonWriter& w) {
  const auto u64 = [](auto v) { return static_cast<std::uint64_t>(v); };
  w.begin_object();
  w.kv("program", r.program);
  w.kv("simulable", r.simulable);
  w.kv("ops", u64(r.num_ops));
  w.kv("objects", u64(r.num_objects));
  w.kv("has_recovery", r.has_recovery);
  w.kv("ok", r.ok());

  w.key("a1").begin_object();
  w.kv("verdict", verdict_name(r.a1));
  w.kv("shared_sites", u64(r.shared_sites));
  w.kv("exact_sites", u64(r.exact_sites));
  w.key("footprints").begin_array();
  for (std::uint32_t pc = 0; pc < r.footprints.size(); ++pc) {
    const StaticFootprint& fp = r.footprints[pc];
    if (fp.space == StaticFootprint::Space::kNone) continue;
    w.begin_object();
    w.kv("pc", u64(pc));
    w.kv("space", fp.space == StaticFootprint::Space::kObject
                      ? "object"
                      : "register");
    w.kv("exact", fp.exact);
    w.kv("writes", fp.writes);
    w.kv("lo", u64(fp.lo));
    w.kv("hi", u64(fp.hi));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("a2").begin_object();
  w.kv("verdict", verdict_name(r.a2));
  w.kv("immune_mask", r.immune_objects);
  w.key("objects").begin_array();
  for (const auto& oi : r.objects) {
    w.begin_object();
    w.kv("object", u64(oi.object));
    w.kv("immune", oi.immune);
    w.kv("values_top", oi.values_top);
    w.key("values").begin_array();
    for (const Word v : oi.values) w.value(v);
    w.end_array();
    w.kv("reason", oi.reason);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("a3").begin_object();
  w.kv("verdict", verdict_name(r.a3));
  w.key("loops").begin_array();
  for (const auto& loop : r.loops) {
    w.begin_object();
    const char* kind = loop.kind == LoopCertificate::Kind::kCounted
                           ? "counted"
                           : loop.kind == LoopCertificate::Kind::kCasRetry
                                 ? "cas_retry"
                                 : "paused_cycle";
    w.kv("kind", kind);
    w.key("pcs").begin_array();
    for (const std::uint32_t pc : loop.pcs) w.value(u64(pc));
    w.end_array();
    if (loop.kind == LoopCertificate::Kind::kCounted) {
      w.kv("local", loop.local);
      w.kv("bound", loop.bound);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("a4").begin_object();
  w.kv("verdict", verdict_name(r.a4));
  w.kv("has_recovery", r.has_recovery);
  w.key("witnesses").begin_array();
  for (const auto& wit : r.recovery_witnesses) {
    w.begin_object();
    w.kv("local", wit.local);
    w.kv("read_pc", u64(wit.read_pc));
    w.key("path").begin_array();
    for (const std::uint32_t pc : wit.path) w.value(u64(pc));
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("a5").begin_object();
  w.kv("verdict", verdict_name(r.a5));
  w.key("unreachable").begin_array();
  for (const std::uint32_t pc : r.unreachable_pcs) w.value(u64(pc));
  w.end_array();
  w.key("coverage").begin_array();
  for (const auto& cv : r.coverage_violations) {
    w.begin_object();
    w.kv("pc", u64(cv.pc));
    w.kv("op", cv.op);
    w.kv("local", cv.local);
    w.end_object();
  }
  w.end_array();
  w.key("unused_layout").begin_array();
  for (const auto& l : r.unused_layout_locals) w.value(l);
  w.end_array();
  w.end_object();

  w.end_object();
}

}  // namespace ff::proto::analysis

// Factory-side caches.  Defined here (not in the headers) so machine.hpp
// and genapi.hpp do not depend on the analyzer; the once_flag makes the
// analysis run at most once per factory even when many SimWorlds are
// constructed from it (bench_b3 builds thousands).
namespace ff::proto {

std::shared_ptr<const sched::ProgramFacts> IrMachineFactory::facts() const {
  std::call_once(facts_once_, [this] {
    facts_cache_ = analysis::program_facts(*program_);
  });
  return facts_cache_;
}

namespace gen {

std::shared_ptr<const sched::ProgramFacts> GenMachineFactory::facts() const {
  std::call_once(facts_once_, [this] {
    facts_cache_ = analysis::program_facts(*program_);
  });
  return facts_cache_;
}

}  // namespace gen
}  // namespace ff::proto
