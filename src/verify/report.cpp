#include "verify/report.hpp"

#include "util/json.hpp"

namespace ff::verify {

namespace {

sched::ViolationKind violation_kind_from_string(std::string_view name) {
  using sched::ViolationKind;
  if (name == "inconsistent") return ViolationKind::kInconsistent;
  if (name == "invalid") return ViolationKind::kInvalid;
  if (name == "stalled") return ViolationKind::kStalled;
  if (name == "nontermination") return ViolationKind::kNontermination;
  throw util::JsonParseError(
      "unknown violation kind \"" + std::string(name) + '"', 0);
}

/// Witness schedule as [pid, fault, fault_variant, crash] quads — the
/// most compact stable encoding that still replays exactly.
void write_violation(util::JsonWriter& w, const sched::Violation& v) {
  w.begin_object();
  w.kv("kind", sched::to_string(v.kind));
  w.kv("detail", v.detail);
  w.key("schedule").begin_array();
  for (const auto& choice : v.schedule) {
    w.begin_array();
    w.value(std::uint64_t{choice.pid});
    w.value(std::uint64_t{choice.fault ? 1u : 0u});
    w.value(std::uint64_t{choice.fault_variant});
    w.value(std::uint64_t{choice.crash ? 1u : 0u});
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

sched::Violation read_violation(const util::JsonValue& doc) {
  sched::Violation v;
  v.kind = violation_kind_from_string(doc.at("kind").as_string());
  v.detail = doc.at("detail").as_string();
  for (const auto& quad : doc.at("schedule").as_array()) {
    const auto& fields = quad.as_array();
    if (fields.size() != 4) {
      throw util::JsonParseError("witness step is not a 4-tuple", 0);
    }
    sched::Choice choice;
    choice.pid = static_cast<objects::ProcessId>(fields[0].as_u64());
    choice.fault = fields[1].as_u64() != 0;
    choice.fault_variant = static_cast<std::uint32_t>(fields[2].as_u64());
    choice.crash = fields[3].as_u64() != 0;
    v.schedule.push_back(choice);
  }
  return v;
}

void write_optional_u64(util::JsonWriter& w, std::string_view key,
                        const std::optional<std::uint64_t>& v) {
  w.key(key);
  if (v) {
    w.value(*v);
  } else {
    w.null();
  }
}

std::optional<std::uint64_t> read_optional_u64(const util::JsonValue& doc,
                                               std::string_view key) {
  const util::JsonValue& v = doc.at(key);
  if (v.is_null()) return std::nullopt;
  return v.as_u64();
}

}  // namespace

std::string Report::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.kv("protocol", protocol);
  w.kv("engine", verify::to_string(engine));
  w.kv("complete", complete);
  w.kv("states_visited", states_visited);
  w.kv("terminal_states", terminal_states);
  w.kv("violations_found", violations_found);
  w.key("violations_by_kind").begin_object();
  for (const auto& [kind, count] : violations_by_kind) {
    w.kv(sched::to_string(kind), count);
  }
  w.end_object();
  w.kv("max_depth", max_depth);
  w.key("agreed_values").begin_array();
  for (const auto v : agreed_values) w.value(v);
  w.end_array();
  w.kv("table_grows", table_grows);
  w.kv("immunity_checks", immunity_checks);
  w.kv("immunity_skips", immunity_skips);
  w.kv("peak_bytes", peak_bytes);
  w.key("violation");
  if (violation) {
    write_violation(w, *violation);
  } else {
    w.null();
  }
  w.key("frontier");
  if (frontier) {
    w.begin_object();
    w.kv("waves", frontier->waves);
    w.kv("forwarded", frontier->forwarded);
    w.kv("batch_sweeps", frontier->batch_sweeps);
    w.kv("batched_lanes", frontier->batched_lanes);
    w.kv("memo_hits", frontier->memo_hits);
    w.kv("arena_lanes", frontier->arena_lanes);
    w.end_object();
  } else {
    w.null();
  }
  w.key("fuzz");
  if (fuzz) {
    w.begin_object();
    w.kv("executions", fuzz->executions);
    w.kv("total_steps", fuzz->total_steps);
    w.kv("corpus_entries", fuzz->corpus_entries);
    w.kv("unique_states", fuzz->unique_states);
    write_optional_u64(w, "first_violation_exec", fuzz->first_violation_exec);
    w.kv("witness_steps_found", fuzz->witness_steps_found);
    w.kv("witness_steps_shrunk", fuzz->witness_steps_shrunk);
    w.key("rng_state").begin_array();
    for (const auto word : fuzz->rng_state) w.value(word);
    w.end_array();
    w.end_object();
  } else {
    w.null();
  }
  w.key("stress");
  if (stress) {
    w.begin_object();
    w.kv("trials", stress->trials);
    w.kv("ok", stress->ok);
    w.kv("inconsistent", stress->inconsistent);
    w.kv("invalid", stress->invalid);
    w.kv("undecided", stress->undecided);
    write_optional_u64(w, "first_violation", stress->first_violation);
    w.end_object();
  } else {
    w.null();
  }
  write_optional_u64(w, "wait_free_bound", wait_free_bound);
  w.kv("engine_micros", engine_micros);
  w.end_object();
  return w.str();
}

Report Report::from_json(const util::JsonValue& doc) {
  Report r;
  r.protocol = doc.at("protocol").as_string();
  r.engine = engine_from_string(doc.at("engine").as_string());
  r.complete = doc.at("complete").as_bool();
  r.states_visited = doc.at("states_visited").as_u64();
  r.terminal_states = doc.at("terminal_states").as_u64();
  r.violations_found = doc.at("violations_found").as_u64();
  for (const auto& [name, count] : doc.at("violations_by_kind").members()) {
    r.violations_by_kind[violation_kind_from_string(name)] = count.as_u64();
  }
  r.max_depth = doc.at("max_depth").as_u64();
  for (const auto& v : doc.at("agreed_values").as_array()) {
    r.agreed_values.insert(v.as_u64());
  }
  r.table_grows = doc.at("table_grows").as_u64();
  r.immunity_checks = doc.at("immunity_checks").as_u64();
  r.immunity_skips = doc.at("immunity_skips").as_u64();
  r.peak_bytes = doc.at("peak_bytes").as_u64();
  if (const auto& v = doc.at("violation"); !v.is_null()) {
    r.violation = read_violation(v);
  }
  if (const auto& f = doc.at("frontier"); !f.is_null()) {
    sched::FrontierStats stats;
    stats.waves = f.at("waves").as_u64();
    stats.forwarded = f.at("forwarded").as_u64();
    stats.batch_sweeps = f.at("batch_sweeps").as_u64();
    stats.batched_lanes = f.at("batched_lanes").as_u64();
    stats.memo_hits = f.at("memo_hits").as_u64();
    stats.arena_lanes = f.at("arena_lanes").as_u64();
    r.frontier = stats;
  }
  if (const auto& f = doc.at("fuzz"); !f.is_null()) {
    FuzzSummary s;
    s.executions = f.at("executions").as_u64();
    s.total_steps = f.at("total_steps").as_u64();
    s.corpus_entries = f.at("corpus_entries").as_u64();
    s.unique_states = f.at("unique_states").as_u64();
    s.first_violation_exec = read_optional_u64(f, "first_violation_exec");
    s.witness_steps_found = f.at("witness_steps_found").as_u64();
    s.witness_steps_shrunk = f.at("witness_steps_shrunk").as_u64();
    const auto& rng = f.at("rng_state").as_array();
    if (rng.size() != s.rng_state.size()) {
      throw util::JsonParseError("rng_state is not 4 words", 0);
    }
    for (std::size_t i = 0; i < rng.size(); ++i) {
      s.rng_state[i] = rng[i].as_u64();
    }
    r.fuzz = s;
  }
  if (const auto& s = doc.at("stress"); !s.is_null()) {
    StressSummary sum;
    sum.trials = s.at("trials").as_u64();
    sum.ok = s.at("ok").as_u64();
    sum.inconsistent = s.at("inconsistent").as_u64();
    sum.invalid = s.at("invalid").as_u64();
    sum.undecided = s.at("undecided").as_u64();
    sum.first_violation = read_optional_u64(s, "first_violation");
    r.stress = sum;
  }
  r.wait_free_bound = read_optional_u64(doc, "wait_free_bound");
  r.engine_micros = doc.at("engine_micros").as_u64();
  return r;
}

Report Report::parse(std::string_view text) {
  return from_json(util::JsonValue::parse(text));
}

bool census_equal(const Report& a, const Report& b) {
  return a.states_visited == b.states_visited &&
         a.terminal_states == b.terminal_states &&
         a.violations_by_kind == b.violations_by_kind &&
         a.agreed_values == b.agreed_values;
}

}  // namespace ff::verify
