# Pinned end-to-end output: the QPAD_FAST=1 stdout of each bench below
# must equal <bench>.txt next to this script byte for byte. Runs as the
# qpad_golden ctest; after a deliberate output change, regenerate the
# files from a built tree (and justify the change in the commit):
#
#   cmake -DBIN_DIR=build -DBLESS=ON -P tests/golden/golden.cmake
#
# Both outputs are timing-free and identical for every QPAD_THREADS.
# The Figure 10 CSV is pinned separately by perfbench/reference/.
set(benches bench_sec53_overall bench_fig9_baselines)

if(NOT BIN_DIR)
    message(FATAL_ERROR "pass -DBIN_DIR=<build directory>")
endif()
foreach(bench ${benches})
    set(golden ${CMAKE_CURRENT_LIST_DIR}/${bench}.txt)
    set(actual ${CMAKE_CURRENT_BINARY_DIR}/${bench}.golden.out)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env QPAD_FAST=1 ${BIN_DIR}/${bench}
        OUTPUT_FILE ${actual}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${bench} exited with ${rc}")
    endif()
    if(BLESS)
        file(RENAME ${actual} ${golden})
        message(STATUS "blessed ${golden}")
        continue()
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${actual} ${golden}
        RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR
            "${bench}: QPAD_FAST stdout differs from the golden file; "
            "see: diff ${actual} ${golden}")
    endif()
    file(REMOVE ${actual})
endforeach()
