# Run one table (or `all`) at the golden scale and compare its stdout
# with the committed captures byte for byte (the Golden.* ctests, label
# golden):
#   cmake -DTABLES=<mdp_tables> -DTABLE=<name|all> -DGOLDEN_DIR=<dir>
#         -DACTUAL=<output> -P check_golden.cmake
# For `all` the expected output is every capture, concatenated in
# `mdp_tables --list` order; a table without a capture or a capture
# without a table fails.  tools/regen_golden.sh writes the captures
# with the same settings.
set(GOLDEN ${GOLDEN_DIR}/${TABLE}.stdout)
if(TABLE STREQUAL "all")
    execute_process(COMMAND ${TABLES} --list OUTPUT_VARIABLE names)
    string(REGEX MATCHALL "[^\n]+" names "${names}")
    file(GLOB goldens ${GOLDEN_DIR}/*.stdout)
    list(LENGTH names ntables)
    list(LENGTH goldens ngoldens)
    if(NOT ntables EQUAL ngoldens)
        message(FATAL_ERROR "${ngoldens} goldens for ${ntables} tables")
    endif()
    set(GOLDEN ${ACTUAL}.expected)
    file(WRITE ${GOLDEN} "")
    foreach(name ${names})
        file(READ ${GOLDEN_DIR}/${name}.stdout text) # fails if missing
        file(APPEND ${GOLDEN} "${text}")
    endforeach()
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env --unset=MDP_JSON_OUT MDP_SCALE=0.1
        ${TABLES} ${TABLE}
    OUTPUT_FILE ${ACTUAL}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TABLES} ${TABLE} exited with ${rc}")
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
