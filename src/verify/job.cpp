#include "verify/job.hpp"

#include <stdexcept>

#include "proto/fingerprint.hpp"
#include "proto/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ff::verify {

namespace {

/// Resolves the spec's protocol through the registry; throws the
/// validation error for unknown or non-simulable names.
const proto::ProtocolInfo& resolve_info(const JobSpec& spec) {
  const proto::ProtocolInfo* info =
      proto::ProtocolRegistry::instance().find(spec.protocol);
  if (info == nullptr) {
    throw std::invalid_argument("verify::JobSpec: unknown protocol \"" +
                                spec.protocol + '"');
  }
  if (!info->simulable) {
    throw std::invalid_argument(
        "verify::JobSpec: protocol \"" + info->name +
        "\" is a queue client, not a verifiable consensus protocol");
  }
  return *info;
}

/// Emits the semantic ("job") object — the exact bytes the fingerprint
/// folds.  Expects a canonicalized spec.
void write_job_object(util::JsonWriter& w, const JobSpec& spec) {
  w.begin_object();
  w.kv("protocol", spec.protocol);
  w.key("params").begin_object();
  for (const auto& [name, value] : spec.params) w.kv(name, value);
  w.end_object();
  w.kv("kind", model::to_string(spec.kind));
  w.kv("t", std::uint64_t{spec.t});
  w.kv("crash_budget", std::uint64_t{spec.crash_budget});
  w.kv("processes", std::uint64_t{spec.processes});
  w.kv("equal_inputs", spec.equal_inputs);
  w.kv("engine", to_string(spec.engine));
  w.kv("interpreted", spec.interpreted);
  w.kv("symmetry_reduction", spec.symmetry_reduction);
  w.kv("immunity_pruning", spec.immunity_pruning);
  w.kv("killed_is_violation", spec.killed_is_violation);
  w.kv("stop_at_first_violation", spec.stop_at_first_violation);
  w.kv("max_states", spec.max_states);
  w.kv("wait_free_bound", spec.wait_free_bound);
  w.kv("seed", spec.seed);
  w.kv("fuzz_steps", spec.fuzz_steps);
  w.kv("fuzz_millis", spec.fuzz_millis);
  w.kv("fuzz_execs", spec.fuzz_execs);
  w.kv("shrink", spec.shrink);
  w.kv("trials", spec.trials);
  w.end_object();
}

/// The fingerprinted bytes: the canonical semantic object alone.
std::string semantic_json(const JobSpec& canonical) {
  util::JsonWriter w;
  write_job_object(w, canonical);
  return w.str();
}

}  // namespace

Engine engine_from_string(std::string_view name) {
  if (name == "dfs") return Engine::kDfs;
  if (name == "frontier") return Engine::kFrontier;
  if (name == "fuzz") return Engine::kFuzz;
  if (name == "stress") return Engine::kStress;
  throw std::invalid_argument(
      "unknown engine \"" + std::string(name) +
      "\" (expected dfs | frontier | fuzz | stress)");
}

model::FaultKind fault_kind_from_string(std::string_view name) {
  using model::FaultKind;
  if (name == "none") return FaultKind::kNone;
  if (name == "overriding") return FaultKind::kOverriding;
  if (name == "silent") return FaultKind::kSilent;
  if (name == "invisible") return FaultKind::kInvisible;
  if (name == "arbitrary") return FaultKind::kArbitrary;
  if (name == "nonresponsive") return FaultKind::kNonresponsive;
  if (name == "data" || name == "data-corruption") {
    return FaultKind::kDataCorruption;
  }
  throw std::invalid_argument("unknown fault kind \"" + std::string(name) +
                              '"');
}

void JobSpec::validate() const {
  const proto::ProtocolInfo& info = resolve_info(*this);
  if (processes == 0) {
    throw std::invalid_argument("verify::JobSpec: processes must be >= 1");
  }
  // A protocol sized by `n` (announce-cas, tas) lays out one register per
  // process; a further process would index past that layout.
  for (const auto& param : info.params) {
    if (param.name != "n") continue;
    const auto it = params.find(param.name);
    const std::uint64_t n = it == params.end() ? param.fallback : it->second;
    if (processes > n) {
      throw std::invalid_argument(
          "verify::JobSpec: protocol \"" + info.name + "\" is sized for n = " +
          std::to_string(n) + " processes, but processes = " +
          std::to_string(processes));
    }
  }
  if (wait_free_bound && engine != Engine::kDfs &&
      engine != Engine::kFrontier) {
    // Only an exhaustive search sees every execution; a flag the engine
    // would ignore must not still change the job fingerprint.
    throw std::invalid_argument(
        "verify::JobSpec: the wait-free bound is read off an exhaustive "
        "search; the " + std::string(to_string(engine)) +
        " engine cannot compute it (use dfs or frontier)");
  }
  if (engine == Engine::kStress) {
    // Real threads execute faults probabilistically via policy objects,
    // not as adversary branches; the simulator-only knobs would be
    // silently meaningless here, so they are errors instead.
    if (kind != model::FaultKind::kNone) {
      throw std::invalid_argument(
          "verify::JobSpec: the stress engine runs clean real-thread "
          "trials; fault kinds are simulator adversary branches (use the "
          "dfs/frontier/fuzz engines)");
    }
    if (crash_budget != 0) {
      throw std::invalid_argument(
          "verify::JobSpec: crash budgets are simulator branches; the "
          "stress engine cannot honor them");
    }
    if (interpreted) {
      throw std::invalid_argument(
          "verify::JobSpec: interpreted selects the simulator-side "
          "IrMachine oracle; the stress engine runs the thread-side "
          "protocol adapter");
    }
  }
}

JobSpec JobSpec::canonicalized() const {
  validate();
  const proto::ProtocolInfo& info = resolve_info(*this);
  JobSpec out = *this;
  out.protocol = info.name;
  out.sleep_sets = false;
  out.params.clear();
  for (const auto& param : info.params) {
    const auto it = params.find(param.name);
    out.params[param.name] = it == params.end() ? param.fallback : it->second;
  }
  return out;
}

std::string JobSpec::canonical_json() const {
  const JobSpec canonical = canonicalized();
  util::JsonWriter w;
  w.begin_object();
  w.key("job");
  write_job_object(w, canonical);
  w.key("exec").begin_object();
  w.kv("threads", std::uint64_t{canonical.threads});
  w.end_object();
  w.end_object();
  return w.str();
}

JobSpec JobSpec::from_json(const util::JsonValue& doc) {
  const util::JsonValue& job = doc.at("job");
  const util::JsonValue& exec = doc.at("exec");
  JobSpec spec;
  spec.protocol = job.at("protocol").as_string();
  spec.params.clear();
  for (const auto& [name, value] : job.at("params").members()) {
    spec.params[name] = value.as_u64();
  }
  spec.kind = fault_kind_from_string(job.at("kind").as_string());
  spec.t = static_cast<std::uint32_t>(job.at("t").as_u64());
  spec.crash_budget =
      static_cast<std::uint32_t>(job.at("crash_budget").as_u64());
  spec.processes = static_cast<std::uint32_t>(job.at("processes").as_u64());
  spec.equal_inputs = job.at("equal_inputs").as_bool();
  spec.engine = engine_from_string(job.at("engine").as_string());
  spec.interpreted = job.at("interpreted").as_bool();
  spec.symmetry_reduction = job.at("symmetry_reduction").as_bool();
  spec.immunity_pruning = job.at("immunity_pruning").as_bool();
  spec.killed_is_violation = job.at("killed_is_violation").as_bool();
  spec.stop_at_first_violation = job.at("stop_at_first_violation").as_bool();
  spec.max_states = job.at("max_states").as_u64();
  spec.wait_free_bound = job.at("wait_free_bound").as_bool();
  spec.seed = job.at("seed").as_u64();
  spec.fuzz_steps = job.at("fuzz_steps").as_u64();
  spec.fuzz_millis = job.at("fuzz_millis").as_u64();
  spec.fuzz_execs = job.at("fuzz_execs").as_u64();
  spec.shrink = job.at("shrink").as_bool();
  spec.trials = job.at("trials").as_u64();
  spec.threads = static_cast<std::uint32_t>(exec.at("threads").as_u64());
  return spec;
}

JobSpec JobSpec::parse(std::string_view text) {
  return from_json(util::JsonValue::parse(text));
}

std::string JobFingerprint::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = kHex[(a >> (4 * i)) & 0xF];
    out[static_cast<std::size_t>(31 - i)] = kHex[(b >> (4 * i)) & 0xF];
  }
  return out;
}

JobFingerprint job_fingerprint(const JobSpec& spec,
                               std::uint64_t* program_fp) {
  const JobSpec canonical = spec.canonicalized();
  proto::Params params;
  for (const auto& [name, value] : canonical.params) {
    params.set(name, value);
  }
  const auto program = proto::build_program(canonical.protocol, params);
  const std::uint64_t pfp = proto::program_fingerprint(*program);
  if (program_fp != nullptr) *program_fp = pfp;

  // Two independent splitmix lanes over the canonical semantic bytes,
  // each folded with the program fingerprint — an IR edit or a semantic
  // option edit moves both words.
  const std::string sem = semantic_json(canonical);
  std::uint64_t h1 = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h2 = 0x6a09e667f3bcc909ULL;
  for (const char c : sem) {
    const auto byte = static_cast<std::uint64_t>(
        static_cast<unsigned char>(c));
    h1 = util::mix64(h1 ^ byte);
    h2 = util::mix64(h2 + (byte << 1) + 1);
  }
  return JobFingerprint{util::mix64(h1 ^ pfp),
                        util::mix64(h2 ^ util::mix64(pfp ^ h1))};
}

}  // namespace ff::verify
