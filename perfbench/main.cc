// natix_perfbench: the repository's benchmark program. One process runs
// one workload for one seed and prints every metric by name and unit,
// ending with a single JSON line (see README.md). Normally started
// through run.py, which builds this binary first.
//
//   natix_perfbench --workload paper-hot|adhoc-compile|serve-mix
//                   --seed N --seconds S --trace 0|1 --scratch DIR
#include <cstdio>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: natix_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR]\n");
    return 2;
  }
  if (args.workload == "paper-hot") return perfbench::RunPaperHot(args);
  if (args.workload == "adhoc-compile") {
    return perfbench::RunAdhocCompile(args);
  }
  if (args.workload == "serve-mix") return perfbench::RunServeMix(args);
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
