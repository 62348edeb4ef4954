# Malformed bench flags must stop the run with exit status 2 and a usage
# line, never run a sweep on a silently defaulted value. plum-diff has one
# fixed comparison rule, so a tolerance flag is a usage error too: it diffs
# the committed baselines against themselves, where only the flag can fail.
#
#   cmake -DDIST=<bench_distributed> -DMICRO=<bench_micro> -DDIFF=<plum-diff>
#         -DBASELINES=<bench/baselines> -DDIR=<dir> -P cli_rejects.cmake

# A regressed parser would run a sweep: keep it small and its reports here.
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(ENV{PLUM_BENCH_SMALL} 1)
set(ENV{PLUM_BENCH_JSON_DIR} "${DIR}")

foreach(cmd IN ITEMS "${DIST} --threads abc" "${DIST} --leak-check four"
                     "${DIST} --wek" "${MICRO} --threads abc"
                     "${DIFF} --tol imbalance=0.02 ${BASELINES} ${BASELINES}"
                     "${DIFF} --rel-tol 1e-6 ${BASELINES} ${BASELINES}")
  separate_arguments(argv UNIX_COMMAND "${cmd}")
  execute_process(COMMAND ${argv} RESULT_VARIABLE rc OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "${cmd}: exit ${rc}, want 2 with a usage line")
  endif()
endforeach()
