#include "core/grouping.h"

#include <algorithm>

#include "util/string_util.h"

namespace tdg {

int Grouping::num_members() const {
  int total = 0;
  for (const auto& group : groups) total += static_cast<int>(group.size());
  return total;
}

namespace {

util::Status ValidateCommon(const Grouping& grouping, int n,
                            bool require_equi_sized) {
  if (grouping.groups.empty()) {
    return util::Status::InvalidArgument("grouping has no groups");
  }
  size_t expected_size = grouping.groups.front().size();
  std::vector<char> seen(n, 0);
  int total = 0;
  for (size_t g = 0; g < grouping.groups.size(); ++g) {
    const auto& group = grouping.groups[g];
    if (group.empty()) {
      return util::Status::InvalidArgument(
          util::StrFormat("group %zu is empty", g));
    }
    if (require_equi_sized && group.size() != expected_size) {
      return util::Status::InvalidArgument(util::StrFormat(
          "group %zu has size %zu, expected %zu", g, group.size(),
          expected_size));
    }
    for (int member : group) {
      if (member < 0 || member >= n) {
        return util::Status::InvalidArgument(util::StrFormat(
            "member id %d out of range [0, %d)", member, n));
      }
      if (seen[member]) {
        return util::Status::InvalidArgument(
            util::StrFormat("member %d appears twice", member));
      }
      seen[member] = 1;
      ++total;
    }
  }
  if (total != n) {
    return util::Status::InvalidArgument(util::StrFormat(
        "grouping covers %d members, population has %d", total, n));
  }
  return util::Status::OK();
}

}  // namespace

util::Status Grouping::ValidateEquiSized(int n) const {
  return ValidateCommon(*this, n, /*require_equi_sized=*/true);
}

util::Status Grouping::ValidatePartition(int n) const {
  return ValidateCommon(*this, n, /*require_equi_sized=*/false);
}

Grouping Grouping::Canonicalized() const {
  Grouping canonical = *this;
  for (auto& group : canonical.groups) {
    std::sort(group.begin(), group.end());
  }
  std::sort(canonical.groups.begin(), canonical.groups.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              return a.front() < b.front();
            });
  return canonical;
}

std::string Grouping::CanonicalKey() const {
  Grouping canonical = Canonicalized();
  std::string key;
  for (size_t g = 0; g < canonical.groups.size(); ++g) {
    if (g > 0) key += '|';
    for (size_t i = 0; i < canonical.groups[g].size(); ++i) {
      if (i > 0) key += ',';
      key += std::to_string(canonical.groups[g][i]);
    }
  }
  return key;
}

std::string Grouping::ToString() const {
  std::string out = "[";
  for (size_t g = 0; g < groups.size(); ++g) {
    if (g > 0) out += ',';
    out += '[';
    for (size_t i = 0; i < groups[g].size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(groups[g][i]);
    }
    out += ']';
  }
  out += ']';
  return out;
}

std::vector<int> Grouping::Assignment(int n) const {
  std::vector<int> assignment(static_cast<size_t>(n), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (int id : groups[g]) {
      if (id >= 0 && id < n) {
        assignment[static_cast<size_t>(id)] = static_cast<int>(g);
      }
    }
  }
  return assignment;
}

util::StatusOr<Grouping> GroupingFromAssignment(
    const std::vector<int>& assignment, int num_groups) {
  if (num_groups <= 0) {
    return util::Status::InvalidArgument("num_groups must be positive");
  }
  Grouping grouping;
  grouping.groups.resize(num_groups);
  for (size_t i = 0; i < assignment.size(); ++i) {
    int g = assignment[i];
    if (g < 0 || g >= num_groups) {
      return util::Status::InvalidArgument(util::StrFormat(
          "participant %zu assigned to group %d, valid range [0, %d)", i, g,
          num_groups));
    }
    grouping.groups[g].push_back(static_cast<int>(i));
  }
  for (int g = 0; g < num_groups; ++g) {
    if (grouping.groups[g].empty()) {
      return util::Status::InvalidArgument(
          util::StrFormat("group %d is empty", g));
    }
  }
  return grouping;
}

}  // namespace tdg
