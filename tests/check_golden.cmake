# Run one bench at the golden scale and compare its stdout with the
# committed capture byte for byte (the Golden.* ctests, label golden):
#   cmake -DBENCH=<binary> -DGOLDEN=<capture> -DACTUAL=<output>
#         -P check_golden.cmake
# tools/regen_golden.sh writes the captures with the same settings.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env --unset=MDP_JSON_OUT MDP_SCALE=0.1
        ${BENCH}
    OUTPUT_FILE ${ACTUAL}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "stdout differs from the golden:\n"
        "  diff ${GOLDEN} ${ACTUAL}\n"
        "A change that alters a table re-captures it with "
        "tools/regen_golden.sh and says why.")
endif()
