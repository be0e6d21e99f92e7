// Figure 12: running time (microseconds), star mode, log-normal skills.
// (a) varying n at k = 5; (b) varying k at n = 10000.
// Expected shape: DyGroups is sort-dominated (near-linear in n, independent
// of k); LPA and k-means pick up an extra O(nk) factor.

#include "bench_runtime_common.h"

int main(int argc, char** argv) {
  std::printf("=== Running time, star mode (ICDE'21 Figure 12) ===\n");
  return tdg::bench::RuntimeMain(argc, argv, tdg::InteractionMode::kStar);
}
