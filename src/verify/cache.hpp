// verify::Cache — the persistent fingerprint-keyed census store.
//
// One directory, one JSON file per job: `<hex 128-bit fingerprint>.json`
// holding {format version, job fingerprint, program fingerprint, the
// canonical JobSpec, the Report}.  Design rules (DESIGN.md §3j):
//
//   * ATOMIC PUBLICATION.  store() writes to a uniquely-named temp file
//     in the same directory and renames it over the final name; readers
//     never observe a half-written entry, and concurrent same-key
//     writers converge — rename is atomic, last writer wins, and both
//     wrote byte-identical content (the Report is a pure function of the
//     spec for every cacheable engine).
//   * CORRUPTION TOLERANCE.  A missing, truncated, unparsable,
//     version-mismatched or schema-violating entry is a MISS, never a
//     crash: load() re-reads a bounded number of times (a rename may
//     land mid-read) and then gives up cleanly.
//   * SOUNDNESS RE-CHECK.  load() returns the STORED program fingerprint
//     so the caller (verify::run) can require it to equal the freshly
//     resolved program's fingerprint before serving a hit — an IR edit
//     can therefore never be served a stale census even if the 128-bit
//     key collided.
//
// gc() evicts entries that no longer load (corrupt or stale-version);
// invalidate(protocol) evicts all entries for one canonical protocol
// name — the manual knob for "I changed this protocol's semantics".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "verify/job.hpp"
#include "verify/report.hpp"

namespace ff::verify {

class Cache {
 public:
  /// Bumped whenever the entry schema changes, or an engine change moves
  /// the Report a job produces; mismatched entries are misses and gc()
  /// fodder, never parse attempts.
  static constexpr std::uint64_t kFormatVersion = 7;

  /// Opens (creating if needed) the store at `dir`.  Throws
  /// std::runtime_error when the directory cannot be created.
  explicit Cache(std::string dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  struct Entry {
    JobSpec spec;
    std::uint64_t program_fingerprint = 0;
    Report report;
  };

  /// Bounded-retry read; any failure is a miss (nullopt).
  [[nodiscard]] std::optional<Entry> load(const JobFingerprint& fp) const;

  /// Atomic write-rename publication.  Failures are swallowed (a cache
  /// that cannot persist degrades to a pass-through, it never fails the
  /// verification run).
  void store(const JobFingerprint& fp, const JobSpec& canonical_spec,
             std::uint64_t program_fingerprint, const Report& report) const;

  struct Stats {
    std::uint64_t entries = 0;      ///< loadable entries
    std::uint64_t bytes = 0;        ///< bytes across all entry files
    std::uint64_t unreadable = 0;   ///< corrupt or stale-version files
  };
  [[nodiscard]] Stats stats() const;

  /// Removes every entry that no longer loads; returns how many.
  std::uint64_t gc() const;

  /// Removes every entry whose stored spec names `protocol` (canonical
  /// name or registry alias); returns how many.
  std::uint64_t invalidate(std::string_view protocol) const;

 private:
  [[nodiscard]] std::string entry_path(const JobFingerprint& fp) const;
  [[nodiscard]] std::optional<Entry> parse_entry_file(
      const std::string& path) const;

  std::string dir_;
};

}  // namespace ff::verify
