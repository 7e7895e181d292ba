# The suppression inventory (`qpad-lint --suppressions`) must equal
# suppressions.baseline next to this script, so adding or removing a
# suppression is a reviewed edit of the baseline. Runs as the
# qpad_lint_baseline ctest:
#
#   cmake -DLINT=build/qpad-lint -DREPO=. -P tools/qpad-lint/baseline.cmake
if(NOT LINT OR NOT REPO)
    message(FATAL_ERROR "pass -DLINT=<qpad-lint binary> -DREPO=<repo root>")
endif()
set(baseline ${CMAKE_CURRENT_LIST_DIR}/suppressions.baseline)
set(actual ${CMAKE_CURRENT_BINARY_DIR}/suppressions.inventory.out)
execute_process(
    COMMAND ${LINT} --config ${CMAKE_CURRENT_LIST_DIR}/qpad_lint.toml
            --repo ${REPO} --suppressions
    OUTPUT_FILE ${actual}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qpad-lint --suppressions exited with ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${actual} ${baseline}
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR
        "suppression inventory differs from the baseline; "
        "see: diff ${baseline} ${actual}")
endif()
file(REMOVE ${actual})
