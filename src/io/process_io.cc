#include "io/process_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/file_util.h"
#include "util/string_util.h"

namespace tdg::io {
namespace {

util::JsonValue DoubleVectorToJson(const std::vector<double>& values) {
  util::JsonValue array = util::JsonValue::MakeArray();
  for (double v : values) array.Append(v);
  return array;
}

util::StatusOr<std::vector<double>> DoubleVectorFromJson(
    const util::JsonValue& json) {
  if (!json.is_array()) {
    return util::Status::InvalidArgument("expected a JSON array of numbers");
  }
  std::vector<double> values;
  values.reserve(json.AsArray().size());
  for (const util::JsonValue& v : json.AsArray()) {
    if (!v.is_number()) {
      return util::Status::InvalidArgument("expected a number");
    }
    values.push_back(v.AsNumber());
  }
  return values;
}

}  // namespace

util::JsonValue GroupingToJson(const Grouping& grouping) {
  util::JsonValue groups = util::JsonValue::MakeArray();
  for (const auto& group : grouping.groups) {
    util::JsonValue members = util::JsonValue::MakeArray();
    for (int id : group) members.Append(id);
    groups.Append(std::move(members));
  }
  util::JsonValue root = util::JsonValue::MakeObject();
  root.Set("groups", std::move(groups));
  return root;
}

util::StatusOr<Grouping> GroupingFromJson(const util::JsonValue& json) {
  TDG_ASSIGN_OR_RETURN(util::JsonValue groups_json, json.GetField("groups"));
  if (!groups_json.is_array()) {
    return util::Status::InvalidArgument("'groups' must be an array");
  }
  Grouping grouping;
  for (const util::JsonValue& group_json : groups_json.AsArray()) {
    if (!group_json.is_array()) {
      return util::Status::InvalidArgument("each group must be an array");
    }
    std::vector<int> group;
    for (const util::JsonValue& member : group_json.AsArray()) {
      if (!member.is_number()) {
        return util::Status::InvalidArgument("member ids must be numbers");
      }
      group.push_back(static_cast<int>(member.AsNumber()));
    }
    grouping.groups.push_back(std::move(group));
  }
  return grouping;
}

util::JsonValue GroupingToFlatJson(const Grouping& grouping) {
  int n = 0;
  for (const auto& group : grouping.groups) {
    for (int id : group) n = std::max(n, id + 1);
  }
  util::JsonValue flat = util::JsonValue::MakeArray();
  for (int g : grouping.Assignment(n)) flat.Append(g);
  util::JsonValue root = util::JsonValue::MakeObject();
  root.Set("assignment", std::move(flat));
  root.Set("num_groups", grouping.num_groups());
  return root;
}

util::StatusOr<Grouping> GroupingFromFlatJson(const util::JsonValue& json) {
  TDG_ASSIGN_OR_RETURN(util::JsonValue assignment_json,
                       json.GetField("assignment"));
  TDG_ASSIGN_OR_RETURN(util::JsonValue num_groups_json,
                       json.GetField("num_groups"));
  if (!assignment_json.is_array() || !num_groups_json.is_number()) {
    return util::Status::InvalidArgument(
        "flat grouping needs an 'assignment' array and a 'num_groups' "
        "number");
  }
  std::vector<int> assignment;
  assignment.reserve(assignment_json.AsArray().size());
  for (const util::JsonValue& entry : assignment_json.AsArray()) {
    if (!entry.is_number()) {
      return util::Status::InvalidArgument(
          "assignment entries must be numbers");
    }
    assignment.push_back(static_cast<int>(entry.AsNumber()));
  }
  return GroupingFromAssignment(assignment,
                                static_cast<int>(num_groups_json.AsNumber()));
}

util::JsonValue ProcessResultToJson(const ProcessResult& result) {
  util::JsonValue root = util::JsonValue::MakeObject();
  root.Set("initial_skills", DoubleVectorToJson(result.initial_skills));
  root.Set("final_skills", DoubleVectorToJson(result.final_skills));
  root.Set("round_gains", DoubleVectorToJson(result.round_gains));
  root.Set("total_gain", result.total_gain);
  util::JsonValue history = util::JsonValue::MakeArray();
  for (const RoundRecord& record : result.history) {
    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("grouping", GroupingToJson(record.grouping));
    entry.Set("gain", record.gain);
    entry.Set("skills_after", DoubleVectorToJson(record.skills_after));
    history.Append(std::move(entry));
  }
  root.Set("history", std::move(history));
  return root;
}

util::StatusOr<ProcessResult> ProcessResultFromJson(
    const util::JsonValue& json) {
  ProcessResult result;
  TDG_ASSIGN_OR_RETURN(util::JsonValue initial,
                       json.GetField("initial_skills"));
  TDG_ASSIGN_OR_RETURN(result.initial_skills, DoubleVectorFromJson(initial));
  TDG_ASSIGN_OR_RETURN(util::JsonValue final_json,
                       json.GetField("final_skills"));
  TDG_ASSIGN_OR_RETURN(result.final_skills,
                       DoubleVectorFromJson(final_json));
  TDG_ASSIGN_OR_RETURN(util::JsonValue gains, json.GetField("round_gains"));
  TDG_ASSIGN_OR_RETURN(result.round_gains, DoubleVectorFromJson(gains));
  TDG_ASSIGN_OR_RETURN(util::JsonValue total, json.GetField("total_gain"));
  if (!total.is_number()) {
    return util::Status::InvalidArgument("'total_gain' must be a number");
  }
  result.total_gain = total.AsNumber();

  TDG_ASSIGN_OR_RETURN(util::JsonValue history, json.GetField("history"));
  if (!history.is_array()) {
    return util::Status::InvalidArgument("'history' must be an array");
  }
  for (const util::JsonValue& entry : history.AsArray()) {
    RoundRecord record;
    TDG_ASSIGN_OR_RETURN(util::JsonValue grouping_json,
                         entry.GetField("grouping"));
    TDG_ASSIGN_OR_RETURN(record.grouping, GroupingFromJson(grouping_json));
    TDG_ASSIGN_OR_RETURN(util::JsonValue gain, entry.GetField("gain"));
    if (!gain.is_number()) {
      return util::Status::InvalidArgument("round 'gain' must be a number");
    }
    record.gain = gain.AsNumber();
    TDG_ASSIGN_OR_RETURN(util::JsonValue after,
                         entry.GetField("skills_after"));
    TDG_ASSIGN_OR_RETURN(record.skills_after, DoubleVectorFromJson(after));
    result.history.push_back(std::move(record));
  }
  return result;
}

util::Status WriteProcessResult(const std::string& path,
                                const ProcessResult& result) {
  return util::WriteStringToFile(
      path, ProcessResultToJson(result).SerializePretty() + "\n");
}

util::StatusOr<ProcessResult> ReadProcessResult(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return util::Status::IOError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  TDG_ASSIGN_OR_RETURN(util::JsonValue json,
                       util::JsonValue::Parse(buffer.str()));
  return ProcessResultFromJson(json);
}

}  // namespace tdg::io
