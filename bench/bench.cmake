# mdp_tables prints every paper table and figure (`mdp_tables --list`);
# bench/bench_<name>.cc holds the body of table <name>.  Built from the
# top level so that build/bench/ holds only runnable benches.
set(MDP_BENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

file(GLOB mdp_table_sources CONFIGURE_DEPENDS ${MDP_BENCH_DIR}/bench_*.cc)
add_executable(mdp_tables ${MDP_BENCH_DIR}/mdp_tables.cc
    ${mdp_table_sources})
target_link_libraries(mdp_tables PRIVATE mdp_harness)
set_target_properties(mdp_tables PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Every table's stdout at MDP_SCALE=0.1 is pinned by a committed
# capture, tests/golden/<table>.stdout, checked by one
# Golden.bench_<table> ctest per capture under the golden label, and
# Golden.all checks `mdp_tables all` against the captures concatenated
# in --list order (tools/regen_golden.sh re-captures them all).
function(mdp_add_golden test table)
    add_test(NAME ${test}
        COMMAND ${CMAKE_COMMAND}
            -DTABLES=$<TARGET_FILE:mdp_tables> -DTABLE=${table}
            -DGOLDEN_DIR=${CMAKE_SOURCE_DIR}/tests/golden
            -DACTUAL=${CMAKE_BINARY_DIR}/bench/${table}.stdout
            -P ${CMAKE_SOURCE_DIR}/tests/check_golden.cmake)
    set_tests_properties(${test} PROPERTIES LABELS golden TIMEOUT 300)
endfunction()

file(GLOB mdp_goldens CONFIGURE_DEPENDS
    ${CMAKE_SOURCE_DIR}/tests/golden/*.stdout)
foreach(golden ${mdp_goldens})
    get_filename_component(table ${golden} NAME_WE)
    mdp_add_golden(Golden.bench_${table} ${table})
endforeach()
mdp_add_golden(Golden.all all)

# Microbenchmarks: deterministic kernels over the hot structures and
# cycle loops, reporting per-kernel wall time as micro_* phases in the
# standard JSON artifact (gated by tools/bench_gate.py micro).
function(mdp_add_micro name)
    add_executable(${name} ${MDP_BENCH_DIR}/micro/${name}.cc)
    target_link_libraries(${name} PRIVATE mdp_harness)
    target_include_directories(${name} PRIVATE ${MDP_BENCH_DIR})
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

mdp_add_micro(micro_mdpt)
mdp_add_micro(micro_oracle)
mdp_add_micro(micro_model_cycle)
mdp_add_micro(micro_frontier)
