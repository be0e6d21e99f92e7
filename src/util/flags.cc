#include "util/flags.h"

#include "util/string_util.h"

namespace tdg::util {

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (arg.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    } else {
      values_[std::string(arg)] = "true";
    }
  }
  return Status::OK();
}

Status FlagParser::Parse(int argc, const char* const* argv,
                         const std::set<std::string>& known) {
  TDG_RETURN_IF_ERROR(Parse(argc, argv));
  for (const auto& flag : values_) {
    if (known.count(flag.first) == 0) {
      return Status::InvalidArgument("unknown flag --" + flag.first);
    }
  }
  return Status::OK();
}

bool FlagParser::HasFlag(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

long long FlagParser::GetInt(const std::string& name,
                             long long default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  auto parsed = ParseInt(it->second);
  return parsed.ok() ? parsed.value() : default_value;
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  auto parsed = ParseDouble(it->second);
  return parsed.ok() ? parsed.value() : default_value;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace tdg::util
