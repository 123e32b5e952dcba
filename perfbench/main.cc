// The repo benchmark's program. Runs one workload and prints, as its last
// line, one JSON object with the outputs' check result, the operation counts
// and every metric the workload measured. perfbench/run.py builds this
// program, runs it and picks the metrics BENCHMARK.json names.
//
//   perfbench --workload taxi-server --seed 1 --seconds 20 --trace 0
//             [--trace-out spans.csv]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Report;

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

void PrintJson(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& m = report.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  Report report;
  if (args.workload == "taxi-window-replay") {
    perfbench::RunTaxiWindowReplay(args, report);
  } else if (args.workload == "taxi-server") {
    perfbench::RunTaxiServer(args, report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  for (const Report::Metric& m : report.metrics)
    std::fprintf(stderr, "  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  PrintJson(report);
  return report.correct ? 0 : 1;
}
