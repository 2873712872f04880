cmake_minimum_required(VERSION 3.16)

# Run one paper harness and compare its stdout byte for byte with its
# golden file. Invoked by the PaperGolden.<name> tests:
#
#   cmake -DHARNESS=<binary> -DGOLDEN=<expected.txt>
#         -DACTUAL=<where to keep the output> -P compare_golden.cmake
#
# On a mismatch the harness output is kept at ACTUAL so it can be
# diffed against GOLDEN.
execute_process(COMMAND ${HARNESS}
    OUTPUT_VARIABLE actual
    ERROR_VARIABLE progress
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${HARNESS} exited with '${status}':\n${progress}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    file(WRITE ${ACTUAL} "${actual}")
    message(FATAL_ERROR
        "stdout of ${HARNESS} differs from ${GOLDEN}\n"
        "kept the output at ${ACTUAL}; compare with:\n"
        "  diff ${GOLDEN} ${ACTUAL}")
endif()
