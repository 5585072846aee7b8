// The benchmark program: runs one workload and prints the result as one JSON
// line on standard output; progress notes go to standard error.
//
//   dssp_perfbench --workload browse_hot|shop_tenants|sim_scaleout
//                  --seed N --seconds S --trace 0|1 [--spans PATH]
//
// perfbench/run.py builds this binary and calls it with the same flags.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "dssp_perfbench: %s\nusage: dssp_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("missing flag value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto workload = perfbench::ParseWorkload(value);
      if (!workload.has_value()) return Usage("unknown workload");
      options.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        return Usage("bad --trace");
      }
      options.trace = std::string_view(value) == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload) return Usage("--workload is required");

  const perfbench::Report report = perfbench::RunWorkload(options);
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "%s: %s\n", perfbench::WorkloadName(options.workload),
                 note.c_str());
  }
  std::printf("%s\n", perfbench::RenderJson(report, options.trace).c_str());
  return 0;
}
