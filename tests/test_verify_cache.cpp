// The canonical job layer and its persistent census cache
// (verify/job.hpp, verify/cache.hpp, verify/run.hpp): canonical-JSON
// round-trips, strict validation, the semantic/exec fingerprint split,
// warm hits that are BIT-IDENTICAL to the cold Report, soundness under
// entry tampering and corruption, concurrent same-key publication, and
// cross-engine census parity when every engine runs the same JobSpec.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "model/fault_kind.hpp"
#include "proto/registry.hpp"
#include "verify/cache.hpp"
#include "verify/run.hpp"

namespace ff {
namespace {

namespace fs = std::filesystem;

using model::FaultKind;

/// The tiny reference job most tests run: single-CAS under one
/// overriding fault at n = 2 — a 7-state census, so every cold run is
/// microseconds.
verify::JobSpec tiny_spec() {
  verify::JobSpec spec;
  spec.protocol = "single-cas";
  spec.kind = FaultKind::kOverriding;
  spec.t = 1;
  spec.processes = 2;
  spec.stop_at_first_violation = false;
  return spec;
}

/// `doc` with its dfs engine renamed to "parallel", the name of the
/// deleted work-stealing engine.
std::string naming_parallel(std::string doc) {
  const std::string dfs = "\"engine\":\"dfs\"";
  const std::size_t at = doc.find(dfs);
  EXPECT_NE(at, std::string::npos) << doc;
  if (at != std::string::npos) {
    doc.replace(at, dfs.size(), "\"engine\":\"parallel\"");
  }
  return doc;
}

/// A fresh cache directory under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir.string();
}

std::string entry_path(const verify::Cache& cache,
                       const verify::JobSpec& spec) {
  return (fs::path(cache.dir()) /
          (verify::job_fingerprint(spec.canonicalized()).hex() + ".json"))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void dump(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// ---------------------------------------------------------------------------
// Canonical JSON and fingerprints.
// ---------------------------------------------------------------------------

TEST(JobSpec, CanonicalJsonRoundTripsForEverySimulableProtocol) {
  // Equal jobs must serialize to equal bytes, and parse() must be the
  // exact inverse — for every registered protocol, params normalized
  // against its schema.
  std::size_t checked = 0;
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    if (!info.simulable) continue;
    verify::JobSpec spec = tiny_spec();
    spec.protocol = info.name;
    const std::string json = spec.canonical_json();
    const verify::JobSpec reparsed = verify::JobSpec::parse(json);
    EXPECT_EQ(json, reparsed.canonical_json()) << info.name;
    EXPECT_EQ(spec.canonicalized(), reparsed) << info.name;
    EXPECT_EQ(verify::job_fingerprint(spec),
              verify::job_fingerprint(reparsed))
        << info.name;
    ++checked;
  }
  EXPECT_GE(checked, 8u);
}

TEST(JobSpec, CanonicalizationNormalizesParams) {
  // Schema defaults are filled in and unknown keys dropped, so "staged"
  // with no params and "staged" with an irrelevant key fingerprint the
  // same as the schema-default spelling.
  verify::JobSpec defaults = tiny_spec();
  defaults.protocol = "staged";
  verify::JobSpec noisy = defaults;
  noisy.params = {{"no-such-param", 99}};
  EXPECT_EQ(defaults.canonical_json(), noisy.canonical_json());
  EXPECT_EQ(verify::job_fingerprint(defaults), verify::job_fingerprint(noisy));
}

TEST(JobSpec, ExecHintsAreNotFingerprinted) {
  // The thread count and the table pre-size cannot change the census,
  // so they round-trip through the "exec" section but never key the
  // cache.
  verify::JobSpec base = tiny_spec();
  verify::JobSpec tuned = base;
  tuned.threads = 16;
  tuned.expected_states = 12345;
  EXPECT_EQ(verify::job_fingerprint(base), verify::job_fingerprint(tuned));
  // ...but the hints are not lost: the document round-trips them.
  const verify::JobSpec reparsed =
      verify::JobSpec::parse(tuned.canonical_json());
  EXPECT_EQ(reparsed.threads, 16u);
  EXPECT_EQ(reparsed.expected_states, 12345u);
}

TEST(JobSpec, SemanticEditsChangeTheFingerprint) {
  const verify::JobSpec base = tiny_spec();
  const auto fp = verify::job_fingerprint(base);
  for (const auto& edit : std::vector<verify::JobSpec>{
           [] { auto s = tiny_spec(); s.t = 2; return s; }(),
           [] { auto s = tiny_spec(); s.kind = FaultKind::kSilent; return s; }(),
           [] { auto s = tiny_spec(); s.processes = 3; return s; }(),
           [] { auto s = tiny_spec(); s.crash_budget = 1; return s; }(),
           [] { auto s = tiny_spec(); s.symmetry_reduction = false; return s; }(),
           [] { auto s = tiny_spec(); s.engine = verify::Engine::kFrontier; return s; }(),
           [] { auto s = tiny_spec(); s.protocol = "staged"; return s; }(),
       }) {
    EXPECT_NE(fp, verify::job_fingerprint(edit)) << edit.canonical_json();
  }
}

TEST(JobSpec, SleepSetsMovesNeitherDocumentNorFingerprint) {
  // sleep_sets is an ignored member: no engine reads it, so it must key
  // neither the canonical document nor the cache.
  verify::JobSpec off = tiny_spec();
  off.sleep_sets = false;
  verify::JobSpec on = tiny_spec();
  on.sleep_sets = true;
  EXPECT_EQ(off.canonical_json(), on.canonical_json());
  EXPECT_EQ(verify::job_fingerprint(off), verify::job_fingerprint(on));
  EXPECT_EQ(on.canonical_json().find("sleep_sets"), std::string::npos);
  EXPECT_EQ(verify::JobSpec::parse(on.canonical_json()), on.canonicalized());
}

TEST(JobSpec, DocumentCarryingSleepSetsParses) {
  // Documents written while sleep_sets was a semantic member still parse
  // (from_json skips members it does not read) to the same job.
  const verify::JobSpec spec = tiny_spec();
  std::string doc = spec.canonical_json();
  const std::string anchor = "\"symmetry_reduction\":true,";
  const std::size_t at = doc.find(anchor);
  ASSERT_NE(at, std::string::npos) << doc;
  doc.insert(at + anchor.size(), "\"sleep_sets\":true,");
  const verify::JobSpec reparsed = verify::JobSpec::parse(doc);
  EXPECT_EQ(reparsed, spec.canonicalized());
  EXPECT_EQ(verify::job_fingerprint(reparsed), verify::job_fingerprint(spec));
}

TEST(JobSpec, ValidationRejectsIllegalCombinations) {
  {
    verify::JobSpec spec = tiny_spec();
    spec.protocol = "no-such-protocol";
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  {
    verify::JobSpec spec = tiny_spec();
    spec.processes = 0;
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  for (const char* protocol : {"announce-cas", "tas"}) {
    // Sized by n (default 2): one register per process, so a third
    // process would index past the layout.  The error names both counts.
    verify::JobSpec spec = tiny_spec();
    spec.protocol = protocol;
    spec.processes = 3;
    try {
      spec.validate();
      ADD_FAILURE() << protocol << ": processes > n validated";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("n = 2"), std::string::npos) << what;
      EXPECT_NE(what.find("processes = 3"), std::string::npos) << what;
    }
    spec.params["n"] = 3;
    EXPECT_NO_THROW(spec.validate()) << protocol;
    spec.processes = 2;  // fewer processes than registers is legal
    EXPECT_NO_THROW(spec.validate()) << protocol;
  }
  {
    verify::JobSpec spec = tiny_spec();
    spec.engine = verify::Engine::kStress;  // kind != none: simulator-only
    EXPECT_THROW(spec.validate(), std::invalid_argument);
    spec.kind = FaultKind::kNone;
    spec.t = 0;
    EXPECT_NO_THROW(spec.validate());
    spec.crash_budget = 1;
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  {
    // The wait-free bound is read off an exhaustive search; a fuzz or
    // stress job would ignore the flag, yet it still changes the job
    // fingerprint, so it is an error that names the engine.
    for (const verify::Engine engine :
         {verify::Engine::kFuzz, verify::Engine::kStress}) {
      verify::JobSpec spec = tiny_spec();
      spec.engine = engine;
      spec.kind = FaultKind::kNone;
      spec.t = 0;
      EXPECT_NO_THROW(spec.validate()) << verify::to_string(engine);
      spec.wait_free_bound = true;
      try {
        spec.validate();
        ADD_FAILURE() << verify::to_string(engine)
                      << ": wait_free_bound validated";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::string(verify::to_string(engine))),
                  std::string::npos)
            << what;
      }
    }
    for (const verify::Engine engine :
         {verify::Engine::kDfs, verify::Engine::kFrontier}) {
      verify::JobSpec spec = tiny_spec();
      spec.engine = engine;
      spec.wait_free_bound = true;
      EXPECT_NO_THROW(spec.validate()) << verify::to_string(engine);
    }
  }
  {
    // "parallel" names no engine: no alias quietly maps a job that
    // names it onto a different search.
    EXPECT_THROW((void)verify::engine_from_string("parallel"),
                 std::invalid_argument);
    EXPECT_THROW((void)verify::JobSpec::parse(
                     naming_parallel(tiny_spec().canonical_json())),
                 std::invalid_argument);
  }
  // Registered but not simulable: resolvable by name, rejected as a job.
  for (const auto& info : proto::ProtocolRegistry::instance().all()) {
    if (info.simulable) continue;
    verify::JobSpec spec = tiny_spec();
    spec.protocol = info.name;
    EXPECT_THROW(spec.validate(), std::invalid_argument) << info.name;
  }
}

// ---------------------------------------------------------------------------
// The persistent cache: hits, misses, soundness.
// ---------------------------------------------------------------------------

TEST(VerifyCache, WarmHitIsBitIdenticalWithZeroFreshStates) {
  verify::Cache cache(fresh_dir("ffvc_warm"));
  const verify::JobSpec spec = tiny_spec();

  const verify::RunOutcome cold = verify::run(spec, &cache);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.fresh_states_expanded, 0u);

  const verify::RunOutcome warm = verify::run(spec, &cache);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.fresh_states_expanded, 0u);
  EXPECT_EQ(warm.report, cold.report);
  EXPECT_EQ(warm.report.to_json(), cold.report.to_json());
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.unreadable, 0u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(VerifyCache, ReportJsonRoundTripsBitForBit) {
  // The stability contract to_json()/from_json() — including a
  // violation witness and the frontier section.
  verify::Cache cache(fresh_dir("ffvc_roundtrip"));
  for (verify::JobSpec spec :
       {tiny_spec(), [] {
          auto s = tiny_spec();
          s.engine = verify::Engine::kFrontier;
          return s;
        }()}) {
    const verify::Report report = verify::run(spec, &cache).report;
    const verify::Report reparsed = verify::Report::parse(report.to_json());
    EXPECT_EQ(report, reparsed);
    EXPECT_EQ(report.to_json(), reparsed.to_json());
  }
}

TEST(VerifyCache, OptionEditsMissAndCoexist) {
  // A semantic edit is a different key: it must miss, run fresh, and
  // leave the original entry untouched.
  verify::Cache cache(fresh_dir("ffvc_edits"));
  const verify::JobSpec base = tiny_spec();
  verify::JobSpec wider = base;
  wider.processes = 3;

  EXPECT_FALSE(verify::run(base, &cache).cache_hit);
  EXPECT_FALSE(verify::run(wider, &cache).cache_hit);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_TRUE(verify::run(base, &cache).cache_hit);
  EXPECT_TRUE(verify::run(wider, &cache).cache_hit);
}

TEST(VerifyCache, TamperedProgramFingerprintIsNeverServed) {
  // The soundness re-check: even with the right 128-bit key, an entry
  // whose stored program fingerprint does not match the freshly
  // resolved IR must be a miss (and gets overwritten by the fresh run).
  verify::Cache cache(fresh_dir("ffvc_tamper"));
  const verify::JobSpec spec = tiny_spec();
  (void)verify::run(spec, &cache);

  const std::string path = entry_path(cache, spec);
  std::string text = slurp(path);
  const std::string key = "\"program_fingerprint\":\"";
  const auto at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  for (std::size_t i = 0; i < 16; ++i) text[at + key.size() + i] = '0';
  dump(path, text);

  const verify::RunOutcome outcome = verify::run(spec, &cache);
  EXPECT_FALSE(outcome.cache_hit);
  EXPECT_GT(outcome.fresh_states_expanded, 0u);
  // The fresh run re-published a sound entry; the next run hits again.
  EXPECT_TRUE(verify::run(spec, &cache).cache_hit);
}

TEST(VerifyCache, CorruptEntryIsAMissNeverACrash) {
  verify::Cache cache(fresh_dir("ffvc_corrupt"));
  const verify::JobSpec spec = tiny_spec();
  const verify::RunOutcome cold = verify::run(spec, &cache);
  const std::string path = entry_path(cache, spec);

  // Truncated mid-document, garbage, empty, wrong format version, and
  // a current-version entry whose job names the deleted engine.
  for (const std::string& bad :
       {slurp(path).substr(0, 40), std::string("{not json"), std::string(),
        std::string("{\"ff_cache_version\":999}"),
        naming_parallel(slurp(path))}) {
    dump(path, bad);
    EXPECT_EQ(cache.stats().unreadable, 1u);
    const verify::RunOutcome outcome = verify::run(spec, &cache);
    EXPECT_FALSE(outcome.cache_hit);
    // The fresh run redid the search (its wall time differs, the census
    // cannot) and healed the entry in passing.
    EXPECT_TRUE(census_equal(outcome.report, cold.report));
    EXPECT_TRUE(verify::run(spec, &cache).cache_hit);
  }
}

TEST(VerifyCache, GcEvictsOnlyTheUnreadable) {
  verify::Cache cache(fresh_dir("ffvc_gc"));
  const verify::JobSpec base = tiny_spec();
  verify::JobSpec staged = tiny_spec();
  staged.protocol = "staged";
  (void)verify::run(base, &cache);
  (void)verify::run(staged, &cache);

  dump(entry_path(cache, staged), "{broken");
  EXPECT_EQ(cache.gc(), 1u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.unreadable, 0u);
  EXPECT_TRUE(verify::run(base, &cache).cache_hit);
  EXPECT_FALSE(verify::run(staged, &cache).cache_hit);
}

TEST(VerifyCache, InvalidateEvictsOneProtocol) {
  verify::Cache cache(fresh_dir("ffvc_invalidate"));
  const verify::JobSpec base = tiny_spec();
  verify::JobSpec staged = tiny_spec();
  staged.protocol = "staged";
  verify::JobSpec staged_wide = staged;
  staged_wide.processes = 3;
  (void)verify::run(base, &cache);
  (void)verify::run(staged, &cache);
  (void)verify::run(staged_wide, &cache);

  EXPECT_EQ(cache.invalidate("staged"), 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_TRUE(verify::run(base, &cache).cache_hit);
  EXPECT_FALSE(verify::run(staged, &cache).cache_hit);
}

TEST(VerifyCache, ConcurrentSameKeyWritersConverge) {
  // Atomic write-rename: racing writers of the same key leave exactly
  // one loadable, byte-valid entry (all wrote identical content).
  const std::string dir = fresh_dir("ffvc_race");
  const verify::JobSpec spec = tiny_spec();
  std::vector<std::thread> writers;
  for (int i = 0; i < 8; ++i) {
    writers.emplace_back([&dir, &spec] {
      verify::Cache cache(dir);
      (void)verify::run(spec, &cache);
    });
  }
  for (auto& t : writers) t.join();

  verify::Cache cache(dir);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.unreadable, 0u);
  const verify::RunOutcome warm = verify::run(spec, &cache);
  EXPECT_TRUE(warm.cache_hit);
}

TEST(VerifyCache, UncacheableEnginesNeverTouchTheStore) {
  verify::Cache cache(fresh_dir("ffvc_uncacheable"));
  // Wall-clock fuzz deadline: nondeterministic truncation.
  verify::JobSpec timed = tiny_spec();
  timed.engine = verify::Engine::kFuzz;
  timed.fuzz_steps = 0;
  timed.fuzz_millis = 10;
  EXPECT_FALSE(timed.cacheable());
  EXPECT_FALSE(verify::run(timed, &cache).cache_hit);
  EXPECT_EQ(cache.stats().entries, 0u);
  // Real-thread stress trials: OS scheduling.
  verify::JobSpec stress = tiny_spec();
  stress.engine = verify::Engine::kStress;
  stress.kind = FaultKind::kNone;
  stress.t = 0;
  stress.trials = 4;
  EXPECT_FALSE(stress.cacheable());
  EXPECT_FALSE(verify::run(stress, &cache).cache_hit);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(VerifyCache, DeterministicFuzzIsCacheable) {
  // A step-budgeted fuzz run is a pure function of the spec: the second
  // run must be a hit with the identical campaign summary.
  verify::Cache cache(fresh_dir("ffvc_fuzz"));
  verify::JobSpec spec = tiny_spec();
  spec.engine = verify::Engine::kFuzz;
  spec.fuzz_steps = 5'000;
  ASSERT_TRUE(spec.cacheable());

  const verify::RunOutcome cold = verify::run(spec, &cache);
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_TRUE(cold.report.fuzz.has_value());
  const verify::RunOutcome warm = verify::run(spec, &cache);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.report, cold.report);
}

// ---------------------------------------------------------------------------
// Engine parity through the job layer.
// ---------------------------------------------------------------------------

TEST(VerifyRun, FrontierJobWithSleepSetsValidatesAndRuns) {
  verify::JobSpec spec = tiny_spec();
  spec.engine = verify::Engine::kFrontier;
  spec.threads = 2;
  spec.sleep_sets = true;
  EXPECT_NO_THROW(spec.validate());
  verify::JobSpec dfs = tiny_spec();
  const verify::Report frontier = verify::run(spec).report;
  EXPECT_TRUE(frontier.complete);
  EXPECT_TRUE(census_equal(frontier, verify::run(dfs).report));
}

TEST(VerifyRun, EnginesAgreeOnTheCensusForTheSameJob) {
  // dfs and frontier runs of the same JobSpec must produce census_equal
  // Reports — the job layer's restatement of the differential suites'
  // core invariant.
  verify::JobSpec dfs = tiny_spec();
  dfs.protocol = "staged";
  dfs.processes = 3;
  verify::JobSpec fro = dfs;
  fro.engine = verify::Engine::kFrontier;
  fro.threads = 4;

  const verify::Report a = verify::run(dfs).report;
  const verify::Report c = verify::run(fro).report;
  EXPECT_TRUE(census_equal(a, c));
  EXPECT_TRUE(a.complete && c.complete);
  ASSERT_TRUE(c.frontier.has_value());
  EXPECT_GT(c.frontier->waves, 0u);
}

}  // namespace
}  // namespace ff
