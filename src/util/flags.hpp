#pragma once

// Minimal command-line flag parsing for the examples and bench binaries.
//
// Syntax: --name=value; bare --name sets a boolean flag.  The
// space-separated `--name value` form is not accepted: it is ambiguous next
// to positional arguments.  Unknown flags are an error (typos in experiment
// sweeps should fail loudly, not silently run the default configuration);
// a binary reports a malformed flag (FlagError) as a usage error, exit 2.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace hc3i {

/// A malformed command line.  A CheckFailure, so code that catches that
/// still does, but a main can catch this alone without swallowing internal
/// check failures.  Thrown even when HC3I_CHECK is compiled out.
class FlagError : public CheckFailure {
 public:
  using CheckFailure::CheckFailure;
};

/// Parsed command line: flag map plus positional arguments.
class Flags {
 public:
  /// Parse argv. Throws FlagError on malformed input.
  static Flags parse(int argc, const char* const* argv);

  /// String flag with default.
  std::string get(const std::string& name, const std::string& def) const;
  /// Integer flag with default (FlagError unless present as a whole
  /// integer in range).
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// Count flag (nodes, clusters, minutes, seeds) with default: a whole
  /// integer from 1 to `max`, else FlagError.
  std::uint32_t get_count(const std::string& name, std::uint32_t def,
                          std::uint32_t max = 0xffffffffu) const;
  /// Floating-point flag with default (FlagError if unparsable).
  double get_double(const std::string& name, double def) const;
  /// Boolean flag: present (with no value or "true"/"1") => true.
  bool get_bool(const std::string& name, bool def) const;

  /// True if the flag appeared on the command line.
  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names of all flags that were set (for unknown-flag validation).
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Split a list-valued flag ("a,b,c") into its non-empty tokens.
std::vector<std::string> split_list(const std::string& s);

}  // namespace hc3i
