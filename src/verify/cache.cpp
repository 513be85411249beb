#include "verify/cache.hpp"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "proto/registry.hpp"
#include "util/json.hpp"

namespace ff::verify {

namespace fs = std::filesystem;

namespace {

/// A rename can land between a reader's open and read; one or two
/// re-reads absorb it.  Strictly bounded — a persistently unreadable
/// entry must degrade to a miss, not a spin (fflint R4 governs this
/// directory for exactly this loop shape).
constexpr int kLoadAttempts = 3;

std::string u64_hex(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = kHex[(v >> (4 * i)) & 0xF];
  }
  return out;
}

std::optional<std::uint64_t> parse_u64_hex(const std::string& s) {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

/// True for `<32 lowercase hex>.json` — the only files the cache owns;
/// everything else in the directory is left alone.
bool is_entry_file(const fs::path& path) {
  if (path.extension() != ".json") return false;
  const std::string stem = path.stem().string();
  if (stem.size() != 32) return false;
  for (const char c : stem) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return std::move(buf).str();
}

}  // namespace

Cache::Cache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec && !fs::is_directory(dir_)) {
    throw std::runtime_error("verify::Cache: cannot create cache dir \"" +
                             dir_ + "\": " + ec.message());
  }
}

std::string Cache::entry_path(const JobFingerprint& fp) const {
  return (fs::path(dir_) / (fp.hex() + ".json")).string();
}

std::optional<Cache::Entry> Cache::parse_entry_file(
    const std::string& path) const {
  const auto text = read_file(path);
  if (!text) return std::nullopt;
  try {
    const util::JsonValue doc = util::JsonValue::parse(*text);
    if (doc.at("ff_cache_version").as_u64() != kFormatVersion) {
      return std::nullopt;
    }
    Entry entry;
    const auto pfp =
        parse_u64_hex(doc.at("program_fingerprint").as_string());
    if (!pfp) return std::nullopt;
    entry.program_fingerprint = *pfp;
    entry.spec = JobSpec::from_json(doc.at("spec"));
    entry.report = Report::from_json(doc.at("report"));
    return entry;
  } catch (const util::JsonParseError&) {
    return std::nullopt;
  } catch (const std::invalid_argument&) {
    // e.g. an engine/kind name this build does not know (a future
    // schema's, or the deleted "parallel") — still just a miss.
    return std::nullopt;
  }
}

std::optional<Cache::Entry> Cache::load(const JobFingerprint& fp) const {
  const std::string path = entry_path(fp);
  for (int attempt = 0; attempt < kLoadAttempts; ++attempt) {
    auto entry = parse_entry_file(path);
    if (entry) return entry;
    std::error_code ec;
    if (!fs::exists(path, ec)) return std::nullopt;  // plain miss
  }
  return std::nullopt;
}

void Cache::store(const JobFingerprint& fp, const JobSpec& canonical_spec,
                  std::uint64_t program_fingerprint,
                  const Report& report) const {
  util::JsonWriter w;
  w.begin_object();
  w.kv("ff_cache_version", kFormatVersion);
  w.kv("fingerprint", fp.hex());
  w.kv("program_fingerprint", u64_hex(program_fingerprint));
  w.end_object();
  // Splice the two pre-serialized documents in verbatim; both are
  // canonical already and re-walking them through the writer could only
  // introduce drift.
  const std::string final_path = entry_path(fp);
  std::string body = w.str();
  body.pop_back();  // reopen the object to append the spliced members
  body += ",\"spec\":" + canonical_spec.canonical_json();
  body += ",\"report\":" + report.to_json();
  body += "}\n";

  // Unique temp name per writer: concurrent same-key stores each publish
  // their own temp file and race only on the atomic rename.
  // ff-lint: allow(R1): temp-file nonce for the store's own publication
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t nonce =
      counter.fetch_add(1, std::memory_order_relaxed) ^
      (std::hash<std::thread::id>{}(std::this_thread::get_id()) << 16);
  const std::string tmp_path =
      final_path + ".tmp." + u64_hex(nonce);
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << body;
    if (!out.good()) {
      out.close();
      std::error_code ec;
      fs::remove(tmp_path, ec);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) fs::remove(tmp_path, ec);
}

Cache::Stats Cache::stats() const {
  Stats stats;
  std::error_code ec;
  for (const auto& it : fs::directory_iterator(dir_, ec)) {
    if (!is_entry_file(it.path())) continue;
    std::error_code size_ec;
    const auto size = fs::file_size(it.path(), size_ec);
    if (!size_ec) stats.bytes += size;
    if (parse_entry_file(it.path().string())) {
      ++stats.entries;
    } else {
      ++stats.unreadable;
    }
  }
  return stats;
}

std::uint64_t Cache::gc() const {
  std::uint64_t removed = 0;
  std::error_code ec;
  for (const auto& it : fs::directory_iterator(dir_, ec)) {
    if (!is_entry_file(it.path())) continue;
    if (parse_entry_file(it.path().string())) continue;
    std::error_code rm_ec;
    if (fs::remove(it.path(), rm_ec) && !rm_ec) ++removed;
  }
  return removed;
}

std::uint64_t Cache::invalidate(std::string_view protocol) const {
  // Accept aliases: entries always store the canonical name.
  std::string canonical(protocol);
  if (const auto* info = proto::ProtocolRegistry::instance().find(protocol)) {
    canonical = info->name;
  }
  std::uint64_t removed = 0;
  std::error_code ec;
  for (const auto& it : fs::directory_iterator(dir_, ec)) {
    if (!is_entry_file(it.path())) continue;
    const auto entry = parse_entry_file(it.path().string());
    if (!entry || entry->spec.protocol != canonical) continue;
    std::error_code rm_ec;
    if (fs::remove(it.path(), rm_ec) && !rm_ec) ++removed;
  }
  return removed;
}

}  // namespace ff::verify
