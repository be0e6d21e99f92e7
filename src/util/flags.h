#ifndef TDG_UTIL_FLAGS_H_
#define TDG_UTIL_FLAGS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace tdg::util {

/// Minimal command-line flag parser for the example/bench binaries.
/// Accepts `--name=value`; `--name` alone sets "true". An argument without
/// a leading `--` is always positional (collected in order), so a bare
/// switch never swallows the argument after it. A binary that declares its
/// flag names gets an error for a mistyped or removed flag instead of a
/// silently ignored one.
///
/// Example:
///   FlagParser flags;
///   TDG_CHECK(flags.Parse(argc, argv, {"n", "k"}).ok());
///   int n = flags.GetInt("n", 10000);
class FlagParser {
 public:
  FlagParser() = default;

  /// Parses argv[1..argc). Returns InvalidArgument on `--` without a name.
  Status Parse(int argc, const char* const* argv);
  /// As above, and a flag whose name is not in `known` is InvalidArgument
  /// naming it.
  Status Parse(int argc, const char* const* argv,
               const std::set<std::string>& known);

  bool HasFlag(const std::string& name) const;

  /// Typed getters with defaults; an absent flag or a malformed value
  /// returns the default.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  long long GetInt(const std::string& name, long long default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace tdg::util

#endif  // TDG_UTIL_FLAGS_H_
