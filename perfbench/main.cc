// PARINDA benchmark program. Runs one workload for a fixed time as a closed
// loop with one client and prints one JSON result line:
//
//   parinda_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: interactive_sdss, autopart_sdss, advise_sdss2000 (see
// README.md). With --trace 0 the line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from a run that
// alternates traced and untraced samples. The exit code is 0 only when every
// output check passed.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload interactive_sdss|autopart_sdss|"
               "advise_sdss2000 --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) return Usage(argv[0]);

  perfbench::RunResult result;
  if (options.workload == "interactive_sdss") {
    perfbench::RunInteractiveSdss(options, &result);
  } else if (options.workload == "autopart_sdss") {
    perfbench::RunAutopartSdss(options, &result);
  } else if (options.workload == "advise_sdss2000") {
    perfbench::RunAdviseSdss2000(options, &result);
  } else {
    return Usage(argv[0]);
  }
  result.Print();
  return result.correct() && result.failed == 0 ? 0 : 1;
}
