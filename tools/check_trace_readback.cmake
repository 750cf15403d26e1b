# Asserts that a trace read back from disk analyses exactly as the run that
# wrote it: the run writes --trace-out and prints its own --critical-path
# report; the file must pass `schema_check --trace`, and
# `trace_inspect --critical-path` on it must print the same report, byte
# for byte (breakdown lines included). The trace file is removed on
# success.
#
# Usage:
#   cmake -DRUN="<marlin_run> <args...>" -DTRACE=<path>
#         -DINSPECT=<trace_inspect> -DCHECK=<schema_check>
#         -P check_trace_readback.cmake
separate_arguments(run_cmd UNIX_COMMAND "${RUN}")
execute_process(COMMAND ${run_cmd} --trace-out=${TRACE} --critical-path
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run failed (exit ${rc}): ${RUN}\n${run_out}${run_err}")
endif()
# The report sits between its first "== <protocol>" header and the
# "  trace:" line that follows it.
string(FIND "${run_out}" "== " begin)
string(FIND "${run_out}" "  trace:   " end)
if(begin EQUAL -1 OR end LESS begin)
  message(FATAL_ERROR "no critical-path report in run output:\n${run_out}")
endif()
math(EXPR len "${end} - ${begin}")
string(SUBSTRING "${run_out}" ${begin} ${len} run_report)

execute_process(COMMAND ${CHECK} --trace ${TRACE}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "schema_check --trace rejected ${TRACE}:\n${out}${err}")
endif()

execute_process(COMMAND ${INSPECT} --critical-path --report=none ${TRACE}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE inspect_report
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace_inspect failed (exit ${rc}):\n${err}")
endif()
if(NOT inspect_report STREQUAL run_report)
  message(FATAL_ERROR "trace_inspect's report differs from the run's.\n"
                      "run:\n${run_report}\ntrace_inspect:\n${inspect_report}")
endif()
string(REGEX MATCH "\n  total [^\n]*" total "${run_report}")
message("read-back report matches the run:${total}")
# A metal trace runs to ~90 MB per second of run; keep it only on failure.
file(REMOVE ${TRACE})
