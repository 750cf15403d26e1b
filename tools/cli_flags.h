// Shared argv parsing for the command-line tools (marlin_run, chaos_search,
// marlin_top). One cursor walks the argument list; typed
// matchers consume "--name=value" or "--name value" forms and emit uniform
// diagnostics — a malformed number is an error with the offending flag and
// text, never a silent atoi(0) — so every tool rejects bad input the same
// way (pinned by the cli_* error tests in tools/CMakeLists.txt).
//
// Usage pattern (keeps the tools' chained-matcher style):
//
//   cli::ArgCursor args(argc, argv);
//   while (args.next()) {
//     if (args.flag("--help")) opt.help = true;
//     else if (args.u32("--f", &opt.f)) {}
//     else if (args.millis("--timeout-ms", &opt.timeout)) {}
//     else args.fail_unknown();
//   }
//   if (!args.ok()) return 2;
#pragma once

#include <cstdint>
#include <string>

#include "common/sim_time.h"

namespace marlin::cli {

class ArgCursor {
 public:
  ArgCursor(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advances to the next unconsumed argument; false when exhausted.
  bool next() { return ++i_ < argc_; }
  const char* current() const { return argv_[i_]; }

  // -- matchers for the current argument -------------------------------------
  // Each returns true when the flag NAME matched (value consumed); a
  // matched flag with a malformed value still returns true but prints a
  // diagnostic and marks the parse failed — the caller's chain moves on
  // and the tool exits through !ok().

  /// Bare boolean flag ("--once"). A "=value" suffix is accepted and
  /// ignored, matching the tools' historical behaviour.
  bool flag(const char* name);

  /// String value: "--out=path" or "--out path".
  bool str(const char* name, std::string* out);

  /// Integers (decimal, full token must parse).
  bool u16(const char* name, std::uint16_t* out);
  bool u32(const char* name, std::uint32_t* out);
  bool u64(const char* name, std::uint64_t* out);
  bool i64(const char* name, std::int64_t* out);
  bool size(const char* name, std::size_t* out);

  /// Floating point.
  bool f64(const char* name, double* out);

  /// Duration in integer milliseconds ("--timeout-ms=2000").
  bool millis(const char* name, Duration* out);

  // -- diagnostics -----------------------------------------------------------
  /// Call when no matcher claimed the current argument.
  void fail_unknown();
  /// Report a bad value for an already-matched flag (custom validation in
  /// the caller, e.g. an unknown --protocol name).
  void fail_value(const char* name, const std::string& text,
                  const char* expected);
  bool ok() const { return ok_; }

 private:
  /// Matches NAME and extracts its value from "=..." or the next token;
  /// false when the current arg is a different flag. A matched flag with
  /// no value present fails the parse.
  bool take_value(const char* name, std::string* out);

  int argc_;
  char** argv_;
  int i_ = 0;
  bool ok_ = true;
};

}  // namespace marlin::cli
