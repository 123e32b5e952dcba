// The benchmark workloads. Each generates its inputs from the seed,
// measures for about `args.seconds`, checks its outputs against a reference
// outside the timed region, and fills `report` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "probe.h"

namespace perfbench {

void RunTaxiWindowReplay(const Args& args, Report& report);
void RunTaxiServer(const Args& args, Report& report);

/// Runs `pass` (which returns its own duration in seconds) at least once and
/// then until `seconds` of passes have elapsed, so every run measures about
/// the same wall time whatever the speed of the code under test.
template <typename Pass>
int RepeatPasses(double seconds, Pass&& pass) {
  double elapsed = 0;
  int passes = 0;
  do {
    elapsed += pass(passes);
    ++passes;
  } while (elapsed < seconds);
  return passes;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
