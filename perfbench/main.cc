// perfbench_workload — runs one benchmark workload in this process and
// prints its result as one JSON line (run.py drives it):
//
//   perfbench_workload --workload sim-n40 --seed 7 --seconds 10
//                      [--trace] [--probes] [--scratch DIR]
//
// Exits 0 when every correctness check passed, 1 when one failed (the
// JSON line lists them) and 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

#ifdef PERFBENCH_COUNT_ALLOCS
#include "common/alloc_hook.h"
#endif

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_workload: %s\n"
               "usage: perfbench_workload --workload NAME --seed N "
               "--seconds S [--trace] [--probes] "
               "[--scratch DIR]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--probes") {
      opt.probes = true;
    } else if (!has_value) {
      return usage(("missing value or unknown flag " + arg).c_str());
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--scratch") {
      opt.scratch_dir = argv[++i];
    } else if (arg == "--seed") {
      if (!parse_u64(argv[++i], &opt.seed)) return usage("bad --seed");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(opt.seconds >= 1 && opt.seconds <= 600)) {
        return usage("bad --seconds");
      }
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  if (!perfbench::known_workload(opt.workload)) {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }
#ifdef PERFBENCH_COUNT_ALLOCS
  opt.allocations = [] { return marlin::alloc_hook::allocations(); };
#endif
  const perfbench::RunResult result = perfbench::run_workload(opt);
  std::printf("%s\n", perfbench::result_json(opt, result).c_str());
  return result.correct ? 0 : 1;
}
