#include "baselines/registry.h"

#include "baselines/kmeans.h"
#include "baselines/lpa.h"
#include "baselines/percentile_partitions.h"
#include "baselines/random_assignment.h"
#include "core/dygroups.h"

namespace tdg::baselines {

const std::vector<std::string>& AllPolicyNames() {
  static const std::vector<std::string>* const kNames =
      new std::vector<std::string>{
          "DyGroups-Star",   "DyGroups-Clique",
          "Random-Assignment", "Percentile-Partitions",
          "LPA",             "k-means",
      };
  return *kNames;
}

util::StatusOr<std::unique_ptr<GroupingPolicy>> MakePolicy(
    std::string_view name, uint64_t seed) {
  if (name == "DyGroups-Star") {
    return std::unique_ptr<GroupingPolicy>(new DyGroupsStarPolicy());
  }
  if (name == "DyGroups-Clique") {
    return std::unique_ptr<GroupingPolicy>(new DyGroupsCliquePolicy());
  }
  if (name == "Random-Assignment") {
    return std::unique_ptr<GroupingPolicy>(new RandomAssignmentPolicy(seed));
  }
  if (name == "Percentile-Partitions") {
    return std::unique_ptr<GroupingPolicy>(new PercentilePartitionsPolicy());
  }
  if (name == "LPA") {
    return std::unique_ptr<GroupingPolicy>(new LpaPolicy());
  }
  if (name == "k-means") {
    return std::unique_ptr<GroupingPolicy>(new KMeansPolicy(seed));
  }
  return util::Status::NotFound("unknown policy: '" + std::string(name) +
                                "'");
}

}  // namespace tdg::baselines
