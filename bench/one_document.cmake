# One bench_distributed sweep into a fresh report directory must leave
# exactly its run document and the requested scope stream, both accepted by
# plum-report, which must also reject (exit 1) a copy of the stream cut
# mid-record and a copy of the document with "P": 0. No computed value is
# compared here; plum-diff against bench/baselines is the value gate.
#
#   cmake -DBENCH=<bench_distributed> -DREPORT=<plum-report> -DDIR=<dir>
#         -P one_document.cmake

file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(ENV{PLUM_BENCH_SMALL} 1)
set(ENV{PLUM_BENCH_JSON_DIR} "${DIR}")

execute_process(COMMAND "${BENCH}" --threads 2 --scope-stream
                        "${DIR}/scope.ndjson"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_distributed exited ${rc}")
endif()

file(GLOB left RELATIVE "${DIR}" "${DIR}/*")
list(SORT left)
if(NOT left STREQUAL "BENCH_bench_distributed.json;scope.ndjson")
  message(FATAL_ERROR "report directory holds: ${left}")
endif()

execute_process(COMMAND "${REPORT}" "${DIR}/BENCH_bench_distributed.json"
                        "${DIR}/scope.ndjson"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "plum-report exited ${rc} on the sweep's files")
endif()

# The bad copies go to a subdirectory so the listing above stays exact.
file(MAKE_DIRECTORY "${DIR}/bad")

# The stream cut halfway through its last record.
file(READ "${DIR}/scope.ndjson" stream)
string(LENGTH "${stream}" stream_len)
string(FIND "${stream}" "\n" last_eol REVERSE)
math(EXPR body_end "${stream_len} - 1")
if(NOT last_eol EQUAL body_end)
  message(FATAL_ERROR "scope stream does not end with a newline")
endif()
string(SUBSTRING "${stream}" 0 ${last_eol} body)
string(FIND "${body}" "\n" prev_eol REVERSE)
math(EXPR cut "(${prev_eol} + 1 + ${last_eol}) / 2")
string(SUBSTRING "${stream}" 0 ${cut} torn)
file(WRITE "${DIR}/bad/torn.ndjson" "${torn}")

# The run document with every "P" set to 0.
file(READ "${DIR}/BENCH_bench_distributed.json" doc)
string(REGEX REPLACE "\"P\": [0-9]+" "\"P\": 0" zero_p "${doc}")
if(zero_p STREQUAL doc)
  message(FATAL_ERROR "run document has no \"P\" field to zero")
endif()
file(WRITE "${DIR}/bad/zero_p.json" "${zero_p}")

foreach(bad torn.ndjson zero_p.json)
  execute_process(COMMAND "${REPORT}" "${DIR}/bad/${bad}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "plum-report exited ${rc} on ${bad}, expected 1")
  endif()
endforeach()
