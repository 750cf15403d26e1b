// Host fields written into every committed BENCH_*.json, so a number is
// read against the machine and build that produced it: the core count, the
// CMake build type and the source revision. The bench target supplies
// MARLIN_BUILD_TYPE and MARLIN_SOURCE_DIR (bench/CMakeLists.txt).
#pragma once

#include <cstdio>
#include <string>
#include <thread>

namespace marlin::bench {

/// `git describe --always --dirty` of the source tree, or "unknown" when
/// git or the checkout is unavailable.
inline std::string source_revision() {
  FILE* p = popen("git -C \"" MARLIN_SOURCE_DIR
                  "\" describe --always --dirty 2>/dev/null",
                  "r");
  if (p == nullptr) return "unknown";
  char buf[128] = {};
  std::string rev;
  if (std::fgets(buf, sizeof buf, p) != nullptr) rev = buf;
  pclose(p);
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

/// `"nproc":N,"build_type":"...","git_rev":"..."`: JSON members, no braces.
inline std::string host_json_fields() {
  return "\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"build_type\":\"" MARLIN_BUILD_TYPE "\",\"git_rev\":\"" +
         source_revision() + "\"";
}

}  // namespace marlin::bench
