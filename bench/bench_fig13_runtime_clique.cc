// Figure 13: running time (microseconds), clique mode, log-normal skills.
// (a) varying n at k = 5; (b) varying k at n = 10000.
// The Theorem 3 prefix-sum update keeps clique rounds O(n), so the curves
// track the star-mode ones.

#include "bench_runtime_common.h"

int main(int argc, char** argv) {
  std::printf("=== Running time, clique mode (ICDE'21 Figure 13) ===\n");
  return tdg::bench::RuntimeMain(argc, argv, tdg::InteractionMode::kClique);
}
