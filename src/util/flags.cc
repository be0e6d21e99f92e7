#include "util/flags.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace tdg::util {
namespace {

const char* KindName(FlagKind kind) {
  constexpr const char* kNames[] = {"a string", "an integer", "a number",
                                    "true or false"};
  return kNames[static_cast<int>(kind)];
}

StatusOr<bool> ParseBool(std::string_view value) {
  if (value == "true" || value == "1" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "false" || value == "0" || value == "no" || value == "off") {
    return false;
  }
  return Status::InvalidArgument("not a bool");
}

bool IsValid(FlagKind kind, std::string_view value) {
  return kind == FlagKind::kString ||
         (kind == FlagKind::kInt && ParseInt(value).ok()) ||
         (kind == FlagKind::kDouble && ParseDouble(value).ok()) ||
         (kind == FlagKind::kBool && ParseBool(value).ok());
}

}  // namespace

Status FlagParser::Parse(int argc, const char* const* argv,
                         const FlagSpec& known) {
  known_ = known;
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
    const size_t eq = arg.find('=');
    std::string name(arg.substr(0, eq));
    const std::string_view value =
        eq == std::string_view::npos ? "true" : arg.substr(eq + 1);
    auto kind = known_.find(name);
    if (kind == known_.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (!IsValid(kind->second, value)) {
      return Status::InvalidArgument("flag --" + name + " wants " +
                                     KindName(kind->second) + ", got '" +
                                     std::string(value) + "'");
    }
    values_[std::move(name)] = std::string(value);
  }
  return Status::OK();
}

const std::string* FlagParser::Find(const std::string& name,
                                    FlagKind kind) const {
  auto declared = known_.find(name);
  TDG_CHECK(declared != known_.end() && declared->second == kind)
      << "flag --" << name << " is not declared as " << KindName(kind);
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  const std::string* value = Find(name, FlagKind::kString);
  return value == nullptr ? default_value : *value;
}

long long FlagParser::GetInt(const std::string& name,
                             long long default_value) const {
  const std::string* value = Find(name, FlagKind::kInt);
  return value == nullptr ? default_value : ParseInt(*value).value();
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  const std::string* value = Find(name, FlagKind::kDouble);
  return value == nullptr ? default_value : ParseDouble(*value).value();
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  const std::string* value = Find(name, FlagKind::kBool);
  return value == nullptr ? default_value : ParseBool(*value).value();
}

}  // namespace tdg::util
