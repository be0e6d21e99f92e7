#ifndef TDG_UTIL_FLAGS_H_
#define TDG_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace tdg::util {

/// The values a declared flag accepts (binaries spell a spec with
/// `using enum tdg::util::FlagKind;`).
enum class FlagKind {
  kString,  // anything, including the empty string
  kInt,     // a whole decimal number
  kDouble,  // a number, as strtod reads it
  kBool,    // true|1|yes|on or false|0|no|off; a bare `--name` is true
};

/// Every flag a binary reads, by name, with its kind.
using FlagSpec = std::map<std::string, FlagKind>;

/// The one command-line grammar of the example, bench and test binaries.
/// Accepts `--name=value`; `--name` alone is "true". An argument without a
/// leading `--` is always positional (collected in order), so a bare switch
/// never swallows the argument after it: `--reps 3` is reps=true plus a
/// positional `3`, which an int flag then rejects. Parse checks every flag
/// against the binary's FlagSpec before any work starts: an undeclared
/// name, or a value that is not of the declared kind, is InvalidArgument
/// naming the flag. Enumerated values (say `--path=soa|reference`) are
/// strings that the binary checks itself.
///
/// Example:
///   FlagParser flags;
///   Status parsed = flags.Parse(argc, argv, {{"n", FlagKind::kInt}});
///   if (!parsed.ok()) { /* print it, exit with the usage code */ }
///   int n = flags.GetInt("n", 10000);
class FlagParser {
 public:
  /// Parses argv[1..argc) against `known`.
  Status Parse(int argc, const char* const* argv, const FlagSpec& known);

  /// The parsed value, or `default_value` when the flag is absent. A getter
  /// for a name that was not declared with that kind is a programming
  /// error and aborts.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  long long GetInt(const std::string& name, long long default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// The raw value of a flag declared as `kind`; nullptr when absent.
  const std::string* Find(const std::string& name, FlagKind kind) const;

  FlagSpec known_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace tdg::util

#endif  // TDG_UTIL_FLAGS_H_
