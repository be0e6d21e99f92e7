#ifndef TDG_CORE_GROUPING_H_
#define TDG_CORE_GROUPING_H_

#include <string>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace tdg {

/// One round's partition of participants into groups. Group order and
/// within-group member order carry no semantics for the learning model
/// (gain is order-invariant), but are preserved for reporting.
struct Grouping {
  /// groups[g] holds the participant ids assigned to group g.
  std::vector<std::vector<int>> groups;

  Grouping() = default;
  explicit Grouping(std::vector<std::vector<int>> g) : groups(std::move(g)) {}

  int num_groups() const { return static_cast<int>(groups.size()); }

  /// Total number of members across groups.
  int num_members() const;

  /// Checks that the grouping is a partition of {0, ..., n-1} into
  /// equi-sized non-empty groups.
  util::Status ValidateEquiSized(int n) const;

  /// Checks that the grouping is a partition of {0, ..., n-1} (groups may
  /// have different sizes but must be non-empty). Supports the §VII
  /// varying-size extension.
  util::Status ValidatePartition(int n) const;

  /// Canonical form: each group's members ascending, groups ordered by their
  /// smallest member. Two groupings are the same partition iff their
  /// canonical keys are equal.
  Grouping Canonicalized() const;

  /// A stable string key of the canonical form, e.g. "0,2|1,3".
  std::string CanonicalKey() const;

  /// "[[0,2],[1,3]]" — for debugging and test-failure messages.
  std::string ToString() const;

  /// assignment[id] = index of the group holding participant `id`, for ids
  /// in [0, n) — the inverse of GroupingFromAssignment. Ids in no group
  /// map to 0; member ids outside [0, n) are ignored.
  std::vector<int> Assignment(int n) const;

  bool operator==(const Grouping& other) const {
    return groups == other.groups;
  }
};

/// Builds a grouping from a per-participant assignment vector:
/// assignment[i] = group index of participant i in [0, num_groups).
/// Returns InvalidArgument for out-of-range group indices or empty groups.
util::StatusOr<Grouping> GroupingFromAssignment(
    const std::vector<int>& assignment, int num_groups);

}  // namespace tdg

#endif  // TDG_CORE_GROUPING_H_
