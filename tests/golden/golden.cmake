# Pinned end-to-end output: the QPAD_FAST=1 stdout of each bench below
# must equal its golden file byte for byte — <bench>.txt next to this
# script for sec53 and fig9, and the benchmark's own reference CSV
# (read in place) for the Figure 10 sweep under QPAD_FIG10_CSV=only.
# Each bench runs twice, with the result cache on and with
# QPAD_CACHE=0, and both runs must match the same file: cache-on is
# bit-identical to cache-off. Runs as the qpad_golden ctest; after a
# deliberate output change, regenerate the .txt files from a built
# tree (and justify the change in the commit):
#
#   cmake -DBIN_DIR=build -DBLESS=ON -P tests/golden/golden.cmake
#
# BLESS writes the cache-on output and still checks the cache-off run
# against it. It skips the Figure 10 leg: perfbench/reference/
# belongs to the benchmark and changes only together with it. Every
# output is timing-free and identical for every QPAD_THREADS.
if(NOT BIN_DIR)
    message(FATAL_ERROR "pass -DBIN_DIR=<build directory>")
endif()

# run(<bench> <output file> [VAR=value...]): run <bench> under
# QPAD_FAST=1 plus the given environment, stdout to <output file>.
function(run bench actual)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env QPAD_FAST=1 ${ARGN}
                ${BIN_DIR}/${bench}
        OUTPUT_FILE ${actual}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${bench} exited with ${rc}")
    endif()
endfunction()

# compare(<bench> <output file> <golden file> <leg>): fail unless the
# output equals the golden file; a passing output is removed.
function(compare bench actual golden leg)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${actual} ${golden}
        RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR
            "${bench} (${leg}): QPAD_FAST stdout differs from the "
            "golden file; see: diff ${actual} ${golden}")
    endif()
    file(REMOVE ${actual})
endfunction()

# check(<bench> <golden file> [VAR=value...]): run <bench> with the
# cache on and off, and compare (or bless, cache on) its stdout.
function(check bench golden)
    set(actual ${CMAKE_CURRENT_BINARY_DIR}/${bench}.golden.out)
    run(${bench} ${actual} QPAD_CACHE=1 ${ARGN})
    if(BLESS)
        file(RENAME ${actual} ${golden})
        message(STATUS "blessed ${golden}")
    else()
        compare(${bench} ${actual} ${golden} "cache on")
    endif()
    set(actual ${CMAKE_CURRENT_BINARY_DIR}/${bench}.cache-off.golden.out)
    run(${bench} ${actual} QPAD_CACHE=0 ${ARGN})
    compare(${bench} ${actual} ${golden} "QPAD_CACHE=0")
endfunction()

foreach(bench bench_sec53_overall bench_fig9_baselines)
    check(${bench} ${CMAKE_CURRENT_LIST_DIR}/${bench}.txt)
endforeach()

set(fig10_reference
    ${CMAKE_CURRENT_LIST_DIR}/../../perfbench/reference/fig10_fast_seed0.csv)
if(BLESS)
    message(STATUS "skipped bench_fig10_pareto: ${fig10_reference} "
                   "belongs to the benchmark and is never blessed here")
else()
    check(bench_fig10_pareto ${fig10_reference} QPAD_FIG10_CSV=only)
endif()
