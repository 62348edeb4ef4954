# One bench_distributed sweep into a fresh report directory must leave
# exactly its run document and the requested scope stream, both accepted by
# check_bench_json. No computed value is compared here; plum-diff against
# bench/baselines is the value gate.
#
#   cmake -DBENCH=<bench_distributed> -DCHECK=<check_bench_json> -DDIR=<dir>
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

execute_process(COMMAND "${CHECK}" "${DIR}/BENCH_bench_distributed.json"
                        "${DIR}/scope.ndjson"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_bench_json exited ${rc}")
endif()
