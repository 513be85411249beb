// Tiny command-line flag parser for the bench/example binaries.
//
// Supports --name=value, --name value, and bare --flag booleans.  Every
// flag is kept; unread() lists the ones no getter asked for, so a binary
// that has read all the flags it knows can reject the rest (google-
// benchmark binaries pass their own flags through and never ask).  The
// typed getters return the fallback for an absent or empty value and
// throw std::invalid_argument unless the whole value parses.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace ff::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non --flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Flags given on the command line that no has()/get*() call named
  /// yet, in name order.
  [[nodiscard]] std::vector<std::string> unread() const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

}  // namespace ff::util
