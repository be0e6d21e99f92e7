#ifndef TDG_IO_PROCESS_IO_H_
#define TDG_IO_PROCESS_IO_H_

#include <string>

#include "core/process.h"
#include "util/json.h"

namespace tdg::io {

/// JSON (de)serialization of groupings and full process results — the audit
/// trail of an experiment: which groups were formed in every round and what
/// each round gained. Round-trips exactly (skills are serialized at full
/// precision).

/// {"groups": [[ids...], ...]}
util::JsonValue GroupingToJson(const Grouping& grouping);
util::StatusOr<Grouping> GroupingFromJson(const util::JsonValue& json);

/// {
///   "initial_skills": [...], "final_skills": [...],
///   "round_gains": [...], "total_gain": g,
///   "history": [{"grouping": {...}, "gain": g, "skills_after": [...]}, ...]
/// }
util::JsonValue ProcessResultToJson(const ProcessResult& result);
util::StatusOr<ProcessResult> ProcessResultFromJson(
    const util::JsonValue& json);

/// File convenience wrappers.
util::Status WriteProcessResult(const std::string& path,
                                const ProcessResult& result);
util::StatusOr<ProcessResult> ReadProcessResult(const std::string& path);

}  // namespace tdg::io

#endif  // TDG_IO_PROCESS_IO_H_
