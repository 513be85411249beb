// ffgen — the proto::Program → native C++ code generator.
//
// For every parameterization in the generation grid (each registry
// protocol at its registered parameter points) ffgen builds the Program
// through the ordinary ProtocolRegistry path and compiles it to a
// straight-line StepMachine class: state transitions are gotos between
// op labels, expressions are folded into plain uint64 C++ expressions,
// and the pause protocol (pc_, dst local, resume at pc+1) mirrors
// IrMachine exactly so encode() layouts are bit-identical.
//
// Every output file is stamped with
//     // @generated by ffgen -- DO NOT EDIT; regenerate with tools/ffgen.
//     // checksum: <fnv1a64 of everything after this line>
// ff-lint re-verifies that checksum before granting the generated tree
// its R1/R2 exemption, so hand-edited files lose the exemption and the
// check.sh drift gate (`ffgen --check`) fails on any divergence from
// the committed output.
//
// Usage:
//   ffgen --out <dir>           write/refresh all generated TUs in <dir>
//   ffgen --check --out <dir>   regenerate in memory; exit 1 on drift

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "proto/analysis/analysis.hpp"
#include "proto/fingerprint.hpp"
#include "proto/ir.hpp"
#include "proto/registry.hpp"

namespace {

using ff::proto::ExprId;
using ff::proto::ExprNode;
using ff::proto::ExprOp;
using ff::proto::Op;
using ff::proto::OpKind;
using ff::proto::Params;
using ff::proto::Program;
using ff::proto::Word;

// Same function ff-lint re-implements for exemption verification; the
// two must agree byte-for-byte on the body after the checksum line.
std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  static const char* const digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

std::string u64lit(Word v) {
  std::ostringstream o;
  if (v < 10) {
    o << v;
  } else {
    o << "0x" << std::hex << v;
  }
  o << "ull";
  return o.str();
}

[[noreturn]] void fatal(const std::string& msg) {
  std::cerr << "ffgen: " << msg << "\n";
  std::exit(2);
}

// ---------------------------------------------------------- expressions

/// Emits expression `id` as a fully parenthesized all-uint64 C++
/// expression.  Comparisons produce `? 1ull : 0ull` so every
/// subexpression stays std::uint64_t (no -Wconversion surprises), which
/// reproduces Program::eval()'s word-at-a-time semantics exactly; kAnd
/// and kOr may short-circuit here where the interpreter evaluates both
/// sides, which is sound because IR expressions are pure and total.
std::string emit_expr(const Program& p, ExprId id, bool in_ctor) {
  if (id == ff::proto::kNoExpr) fatal("emit_expr on kNoExpr");
  const ExprNode& e = p.exprs()[id];
  const auto a = [&] { return emit_expr(p, e.a, in_ctor); };
  const auto b = [&] { return emit_expr(p, e.b, in_ctor); };
  const auto c = [&] { return emit_expr(p, e.c, in_ctor); };
  switch (e.op) {
    case ExprOp::kConst:
      return u64lit(e.imm);
    case ExprOp::kInput:
      if (!in_ctor) fatal("`input` outside a local initializer");
      return "input";
    case ExprOp::kPid:
      return "pid_";
    case ExprOp::kLocal:
      return "l" + std::to_string(e.imm) + "_";
    case ExprOp::kAdd:
      return "(" + a() + " + " + b() + ")";
    case ExprOp::kSub:
      return "(" + a() + " - " + b() + ")";
    case ExprOp::kEq:
      return "((" + a() + " == " + b() + ") ? 1ull : 0ull)";
    case ExprOp::kNe:
      return "((" + a() + " != " + b() + ") ? 1ull : 0ull)";
    case ExprOp::kLt:
      return "((" + a() + " < " + b() + ") ? 1ull : 0ull)";
    case ExprOp::kGe:
      return "((" + a() + " >= " + b() + ") ? 1ull : 0ull)";
    case ExprOp::kAnd:
      return "(((" + a() + " != 0ull) && (" + b() +
             " != 0ull)) ? 1ull : 0ull)";
    case ExprOp::kOr:
      return "(((" + a() + " != 0ull) || (" + b() +
             " != 0ull)) ? 1ull : 0ull)";
    case ExprOp::kNot:
      return "((" + a() + " == 0ull) ? 1ull : 0ull)";
    case ExprOp::kIsBottom:
      return "((" + a() + " == 0xffffffffffffffffull) ? 1ull : 0ull)";
    case ExprOp::kPack:
      return "(((" + b() + " & 0xffffffffull) << 32) | (" + a() +
             " & 0xffffffffull))";
    case ExprOp::kStage:
      return "(" + a() + " >> 32)";
    case ExprOp::kValueOf:
    case ExprOp::kU32:
      return "(" + a() + " & 0xffffffffull)";
    case ExprOp::kSelect:
      return "((" + a() + " != 0ull) ? " + b() + " : " + c() + ")";
  }
  fatal("unknown ExprOp");
}

bool tree_uses_input(const Program& p, ExprId id) {
  if (id == ff::proto::kNoExpr) return false;
  const ExprNode& e = p.exprs()[id];
  if (e.op == ExprOp::kInput) return true;
  return tree_uses_input(p, e.a) || tree_uses_input(p, e.b) ||
         tree_uses_input(p, e.c);
}

// ------------------------------------------------------------- machines

/// Emits one StepMachine class for `p`, named `cls`.  Control flow:
/// advance(entry) jumps (switch → goto) to the op at `entry` and runs
/// straight-line until a pause or halt; deliver_raw(v) stores v into the
/// paused op's dst local and advances at pc+1, which is exactly
/// IrMachine's resume point (the pause terminator is its op's last
/// token).  Labels exist only at jump targets and entry points, so the
/// TU compiles clean under -Wunused-label; advance() declares no locals,
/// so no goto can cross an initialization.
std::string emit_machine(const Program& p, const std::string& cls,
                         const std::string& comment) {
  const std::vector<Op>& ops = p.ops();
  const std::size_t num_locals = p.locals().size();
  const bool uses_pid = p.uses_pid();

  std::set<std::uint32_t> entries;  // advance() switch cases
  entries.insert(0);
  if (p.has_recovery()) entries.insert(p.recovery_pc());
  std::vector<std::uint32_t> shared_pcs;
  for (std::uint32_t pc = 0; pc < ops.size(); ++pc) {
    if (!ff::proto::is_shared_op(ops[pc].kind)) continue;
    if (ops[pc].kind == OpKind::kEnqueue || ops[pc].kind == OpKind::kDequeue) {
      fatal("queue op in a simulable program");
    }
    if (pc + 1 >= ops.size()) fatal("shared op falls off the program end");
    shared_pcs.push_back(pc);
    entries.insert(pc + 1);
  }
  std::set<std::uint32_t> labels = entries;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kBranch || op.kind == OpKind::kGoto) {
      if (op.target >= ops.size()) fatal("jump target out of range");
      labels.insert(op.target);
    }
  }

  bool input_used = false;
  for (const auto& l : p.locals()) {
    input_used = input_used || tree_uses_input(p, l.init);
  }

  std::ostringstream o;
  o << "// " << comment << "\n";
  o << "class " << cls << " final : public sched::StepMachine {\n";
  o << " public:\n";

  // Constructor: locals initialize in declaration order (earlier locals
  // visible to later initializers, as in IrMachine), then run to the
  // first pause.
  o << "  " << cls << "(objects::ProcessId " << (uses_pid ? "pid" : "/*pid*/")
    << ", std::uint64_t " << (input_used ? "input" : "/*input*/") << ") {\n";
  if (uses_pid) o << "    pid_ = static_cast<std::uint64_t>(pid);\n";
  for (std::size_t i = 0; i < num_locals; ++i) {
    o << "    l" << i << "_ = " << emit_expr(p, p.locals()[i].init, true)
      << ";\n";
  }
  o << "    advance(0u);\n";
  o << "  }\n\n";

  o << "  [[nodiscard]] sched::PendingOp next_op() const override {\n"
       "    return pending_;\n"
       "  }\n\n";
  o << "  void deliver(model::Value returned) override {\n"
       "    deliver_raw(returned.raw());\n"
       "  }\n\n";
  o << "  [[nodiscard]] bool done() const override { return halted_; }\n";
  o << "  [[nodiscard]] std::uint64_t decision() const override {\n"
       "    return decision_;\n"
       "  }\n\n";

  o << "  void encode(std::vector<std::uint64_t>& out) const override {\n";
  for (const std::uint16_t l : p.layout()) {
    o << "    out.push_back(l" << l << "_);\n";
  }
  o << "  }\n\n";

  o << "  [[nodiscard]] std::unique_ptr<sched::StepMachine> clone() const "
       "override {\n"
    << "    return std::make_unique<" << cls << ">(*this);\n"
    << "  }\n";

  if (p.has_recovery()) {
    o << "\n  [[nodiscard]] bool can_crash() const override {\n"
         "    return !halted_;\n"
         "  }\n";
    o << "  void crash() override {\n";
    for (std::size_t i = 0; i < num_locals; ++i) {
      if (!p.locals()[i].persistent) o << "    l" << i << "_ = 0ull;\n";
    }
    o << "    pending_ = sched::PendingOp::none();\n";
    o << "    advance(" << p.recovery_pc() << "u);\n";
    o << "  }\n";
  }

  o << "\n  static std::unique_ptr<sched::StepMachine> make(\n"
       "      objects::ProcessId pid, std::uint64_t input) {\n"
    << "    return std::make_unique<" << cls << ">(pid, input);\n"
    << "  }\n\n";

  o << " private:\n";

  // deliver_raw: resume map from paused pc to dst local + next op.
  o << "  void deliver_raw(std::uint64_t v) {\n";
  o << "    switch (pc_) {\n";
  for (const std::uint32_t pc : shared_pcs) {
    o << "      case " << pc << "u:\n"
      << "        l" << ops[pc].dst << "_ = v;\n"
      << "        advance(" << (pc + 1) << "u);\n"
      << "        return;\n";
  }
  o << "      default:\n"
       "        return;\n"
       "    }\n"
       "  }\n\n";

  // advance: the straight-line program body.
  o << "  void advance(std::uint32_t entry) {\n";
  o << "    switch (entry) {\n";
  for (const std::uint32_t e : entries) {
    o << "      case " << e << "u: goto L" << e << ";\n";
  }
  o << "      default: return;\n";
  o << "    }\n";
  for (std::uint32_t pc = 0; pc < ops.size(); ++pc) {
    const Op& op = ops[pc];
    if (labels.count(pc) != 0) o << "  L" << pc << ":\n";
    switch (op.kind) {
      case OpKind::kSet:
        o << "    l" << op.dst << "_ = " << emit_expr(p, op.value, false)
          << ";\n";
        break;
      case OpKind::kBranch:
        o << "    if (" << emit_expr(p, op.value, false)
          << " != 0ull) goto L" << op.target << ";\n";
        break;
      case OpKind::kGoto:
        o << "    goto L" << op.target << ";\n";
        break;
      case OpKind::kHalt:
        o << "    pc_ = " << pc << "u;\n"
          << "    decision_ = " << emit_expr(p, op.value, false) << ";\n"
          << "    halted_ = true;\n"
          << "    pending_ = sched::PendingOp::none();\n"
          << "    return;\n";
        break;
      case OpKind::kCas:
        o << "    pc_ = " << pc << "u;\n"
          << "    pending_ = sched::PendingOp::cas(\n"
          << "        static_cast<objects::ObjectId>("
          << emit_expr(p, op.index, false) << "),\n"
          << "        model::Value::of(" << emit_expr(p, op.expected, false)
          << "),\n"
          << "        model::Value::of(" << emit_expr(p, op.value, false)
          << "));\n"
          << "    return;\n";
        break;
      case OpKind::kRegRead:
        o << "    pc_ = " << pc << "u;\n"
          << "    pending_ = sched::PendingOp::reg_read(\n"
          << "        static_cast<objects::ObjectId>("
          << emit_expr(p, op.index, false) << "));\n"
          << "    return;\n";
        break;
      case OpKind::kRegWrite:
        o << "    pc_ = " << pc << "u;\n"
          << "    pending_ = sched::PendingOp::reg_write(\n"
          << "        static_cast<objects::ObjectId>("
          << emit_expr(p, op.index, false) << "),\n"
          << "        model::Value::of(" << emit_expr(p, op.value, false)
          << "));\n"
          << "    return;\n";
        break;
      case OpKind::kEnqueue:
      case OpKind::kDequeue:
        fatal("queue op in a simulable program");
    }
  }
  o << "  }\n\n";

  // ---- members ----
  for (std::size_t i = 0; i < num_locals; ++i) {
    o << "  std::uint64_t l" << i << "_ = 0;\n";
  }
  if (uses_pid) o << "  std::uint64_t pid_ = 0;\n";
  o << "  std::uint32_t pc_ = 0;\n"
       "  std::uint64_t decision_ = 0;\n"
       "  bool halted_ = false;\n"
       "  sched::PendingOp pending_ = sched::PendingOp::none();\n";
  o << "};\n";
  return o.str();
}

// ------------------------------------------------------------ the grid

struct GridPoint {
  Params params;
  std::string tag;  ///< class-name suffix + comment ("k2"; empty = default)
};

struct GridGroup {
  std::string protocol;   ///< canonical registry name
  std::string file_stem;  ///< gen_<stem>.cpp / entries function suffix
  std::vector<GridPoint> points;
};

std::vector<GridGroup> generation_grid() {
  std::vector<GridGroup> grid;
  grid.push_back({"single-cas", "single_cas", {{Params{}, ""}}});

  GridGroup fp1{"f-plus-one", "f_plus_one", {}};
  for (std::uint64_t k = 1; k <= 4; ++k) {
    fp1.points.push_back({Params{{"k", k}}, "k" + std::to_string(k)});
  }
  grid.push_back(std::move(fp1));

  const std::vector<std::pair<std::uint64_t, std::uint64_t>> kStagedFt = {
      {1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}, {3, 2}};
  GridGroup staged{"staged", "staged", {}};
  for (const auto& [f, t] : kStagedFt) {
    staged.points.push_back({Params{{"f", f}, {"t", t}},
                             "f" + std::to_string(f) + "t" +
                                 std::to_string(t)});
  }
  grid.push_back(std::move(staged));

  grid.push_back({"retry-silent", "retry_silent", {{Params{}, ""}}});

  GridGroup announce{"announce-cas", "announce_cas", {}};
  GridGroup tas{"tas", "tas", {}};
  for (std::uint64_t n = 2; n <= 5; ++n) {
    announce.points.push_back({Params{{"n", n}}, "n" + std::to_string(n)});
    tas.points.push_back({Params{{"n", n}}, "n" + std::to_string(n)});
  }
  grid.push_back(std::move(announce));
  grid.push_back(std::move(tas));

  grid.push_back(
      {"recoverable-cas", "recoverable_cas", {{Params{}, ""}}});

  GridGroup rstaged{"recoverable-staged", "recoverable_staged", {}};
  for (const auto& [f, t] : kStagedFt) {
    rstaged.points.push_back({Params{{"f", f}, {"t", t}},
                              "f" + std::to_string(f) + "t" +
                                  std::to_string(t)});
  }
  grid.push_back(std::move(rstaged));
  return grid;
}

// --------------------------------------------------------- file packing

std::string class_name(const GridGroup& g, const GridPoint& pt) {
  std::string n = "M_" + g.file_stem;
  if (!pt.tag.empty()) n += "_" + pt.tag;
  return n;
}

std::string params_comment(const GridGroup& g, const GridPoint& pt) {
  std::string c = g.protocol;
  c += pt.tag.empty() ? " (default params)" : " (" + pt.tag + ")";
  return c;
}

/// Body of one generated TU (everything after the marker+checksum
/// header): all grid specializations of one protocol plus the exported
/// entries function gen_table.cpp aggregates.
std::string emit_group_body(const GridGroup& g) {
  std::ostringstream o;
  o << "//\n// Machines for protocol \"" << g.protocol
    << "\" — straight-line compilation of its proto::Program grid\n"
       "// points.  See src/proto/genapi.hpp for the runtime seam and\n"
       "// tools/ffgen for the emitter.\n";
  o << "#include \"proto/genapi.hpp\"\n\n"
       "#include <cstddef>\n"
       "#include <cstdint>\n"
       "#include <memory>\n"
       "#include <vector>\n\n"
       "#include \"model/value.hpp\"\n"
       "#include \"objects/shared_object.hpp\"\n"
       "#include \"sched/program.hpp\"\n"
       "#include \"sched/step.hpp\"\n\n";
  o << "namespace ff::proto::gen {\n"
       "namespace {\n\n";

  std::vector<std::pair<std::uint64_t, std::string>> entries;
  for (const GridPoint& pt : g.points) {
    const std::shared_ptr<const Program> p =
        ff::proto::build_program(g.protocol, pt.params);
    // ffcheck gate: native code is only emitted for programs whose
    // analysis obligations all hold — a violated obligation (dead op,
    // layout gap, unsound recovery, shared-op-free loop) means the IR is
    // broken and compiling it would just bake the bug into the tree.
    const auto report = ff::proto::analysis::analyze(*p);
    if (!report.ok()) {
      fatal("ffcheck obligations violated for program `" + p->name() +
            "` (" + g.protocol + ", grid point \"" + pt.tag +
            "\") — run `ffcheck " + g.protocol + "` for the certificate");
    }
    const std::uint64_t fp = ff::proto::program_fingerprint(*p);
    const std::string cls = class_name(g, pt);
    o << emit_machine(*p, cls,
                      params_comment(g, pt) + " — fingerprint 0x" + hex16(fp))
      << "\n";
    entries.emplace_back(fp, cls);
  }

  o << "}  // namespace\n\n";
  o << "const GenEntry* ff_gen_entries_" << g.file_stem
    << "(std::size_t& count) {\n";
  o << "  static const GenEntry kEntries[] = {\n";
  for (const auto& [fp, cls] : entries) {
    o << "      {0x" << hex16(fp) << "ull, &" << cls << "::make},\n";
  }
  o << "  };\n"
       "  count = sizeof(kEntries) / sizeof(kEntries[0]);\n"
       "  return kEntries;\n"
       "}\n\n";
  o << "}  // namespace ff::proto::gen\n";
  return o.str();
}

std::string emit_table_body(const std::vector<GridGroup>& grid) {
  std::ostringstream o;
  o << "//\n// Fingerprint → generated-machine dispatch table: the one\n"
       "// find_generated() definition, aggregating every generated TU's\n"
       "// entries function.\n";
  o << "#include \"proto/genapi.hpp\"\n\n"
       "#include <cstddef>\n"
       "#include <cstdint>\n\n";
  o << "namespace ff::proto::gen {\n\n";
  for (const GridGroup& g : grid) {
    o << "const GenEntry* ff_gen_entries_" << g.file_stem
      << "(std::size_t& count);\n";
  }
  o << "\nconst GenEntry* find_generated(std::uint64_t fingerprint) noexcept "
       "{\n";
  o << "  using EntriesFn = const GenEntry* (*)(std::size_t&);\n";
  o << "  static constexpr EntriesFn kGroups[] = {\n";
  for (const GridGroup& g : grid) {
    o << "      &ff_gen_entries_" << g.file_stem << ",\n";
  }
  o << "  };\n";
  o << "  for (const EntriesFn group : kGroups) {\n"
       "    std::size_t count = 0;\n"
       "    const GenEntry* entries = group(count);\n"
       "    for (std::size_t i = 0; i < count; ++i) {\n"
       "      if (entries[i].fingerprint == fingerprint) return &entries[i];\n"
       "    }\n"
       "  }\n"
       "  return nullptr;\n"
       "}\n\n";
  o << "}  // namespace ff::proto::gen\n";
  return o.str();
}

std::string stamp(const std::string& body) {
  return "// @generated by ffgen -- DO NOT EDIT; regenerate with "
         "tools/ffgen.\n// checksum: " +
         hex16(fnv1a64(body)) + "\n" + body;
}

std::map<std::string, std::string> generate_all() {
  const std::vector<GridGroup> grid = generation_grid();
  std::map<std::string, std::string> files;
  for (const GridGroup& g : grid) {
    files["gen_" + g.file_stem + ".cpp"] = stamp(emit_group_body(g));
  }
  files["gen_table.cpp"] = stamp(emit_table_body(grid));
  return files;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path out_dir;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else {
      std::cerr << "usage: ffgen [--check] --out <dir>\n";
      return 2;
    }
  }
  if (out_dir.empty()) {
    std::cerr << "usage: ffgen [--check] --out <dir>\n";
    return 2;
  }

  std::map<std::string, std::string> files;
  try {
    files = generate_all();
  } catch (const std::exception& err) {
    std::cerr << "ffgen: generation failed: " << err.what() << "\n";
    return 2;
  }

  if (check) {
    bool drift = false;
    for (const auto& [name, content] : files) {
      const std::string on_disk = read_file(out_dir / name);
      if (on_disk.empty()) {
        std::cerr << "ffgen: MISSING " << (out_dir / name).string() << "\n";
        drift = true;
      } else if (on_disk != content) {
        std::cerr << "ffgen: DRIFT " << (out_dir / name).string()
                  << " differs from regenerated output\n";
        drift = true;
      }
    }
    // Stray gen_*.cpp files would silently ship dead (or worse, stale)
    // machines, so the drift gate rejects them too.
    if (std::filesystem::exists(out_dir)) {
      for (const auto& entry : std::filesystem::directory_iterator(out_dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("gen_", 0) == 0 && files.count(name) == 0) {
          std::cerr << "ffgen: STRAY " << entry.path().string()
                    << " is not produced by this generator\n";
          drift = true;
        }
      }
    }
    if (drift) {
      std::cerr << "ffgen: generated tree is out of date — run "
                   "`ffgen --out "
                << out_dir.string() << "` and commit the result\n";
      return 1;
    }
    std::cout << "ffgen: " << files.size() << " generated files up to date\n";
    return 0;
  }

  std::filesystem::create_directories(out_dir);
  for (const auto& [name, content] : files) {
    std::ofstream o(out_dir / name, std::ios::binary | std::ios::trunc);
    if (!o) {
      std::cerr << "ffgen: cannot write " << (out_dir / name).string() << "\n";
      return 2;
    }
    o << content;
  }
  std::cout << "ffgen: wrote " << files.size() << " files to "
            << out_dir.string() << "\n";
  return 0;
}
