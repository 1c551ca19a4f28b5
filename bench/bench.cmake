# Bench binaries are built from the top level so that build/bench/
# contains only the runnable table/figure generators:
#   for b in build/bench/*; do $b; done
set(MDP_BENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

# Every bench's stdout at MDP_SCALE=0.1 is pinned by a committed
# capture, tests/golden/<name without bench_>.stdout, and checked by a
# Golden.<bench> ctest under the golden label
# (tools/regen_golden.sh re-captures them all).
function(mdp_add_bench name)
    add_executable(${name} ${MDP_BENCH_DIR}/${name}.cc)
    target_link_libraries(${name} PRIVATE mdp_harness)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
    string(REGEX REPLACE "^bench_" "" golden ${name})
    add_test(NAME Golden.${name}
        COMMAND ${CMAKE_COMMAND}
            -DBENCH=$<TARGET_FILE:${name}>
            -DGOLDEN=${CMAKE_SOURCE_DIR}/tests/golden/${golden}.stdout
            -DACTUAL=${CMAKE_BINARY_DIR}/bench/${golden}.stdout
            -P ${CMAKE_SOURCE_DIR}/tests/check_golden.cmake)
    set_tests_properties(Golden.${name} PROPERTIES
        LABELS golden TIMEOUT 300)
endfunction()

mdp_add_bench(bench_table1_instcounts)
mdp_add_bench(bench_table3_window_deps)
mdp_add_bench(bench_table4_static_deps)
mdp_add_bench(bench_table5_ddc_window)
mdp_add_bench(bench_table6_ms_misspec)
mdp_add_bench(bench_table7_ms_ddc)
mdp_add_bench(bench_fig5_policies)
mdp_add_bench(bench_table8_pred_breakdown)
mdp_add_bench(bench_table9_misspec_rate)
mdp_add_bench(bench_fig6_mechanism)
mdp_add_bench(bench_fig7_spec95)
mdp_add_bench(bench_ablation_table_size)
mdp_add_bench(bench_ablation_predictor)
mdp_add_bench(bench_ablation_tagging)
mdp_add_bench(bench_ablation_ooo)
mdp_add_bench(bench_ablation_distributed)
mdp_add_bench(bench_ablation_vsync)
mdp_add_bench(bench_ablation_warmstart)
mdp_add_bench(bench_ablation_zoo)
mdp_add_bench(bench_manycore_scaling)
target_link_libraries(bench_manycore_scaling PRIVATE mdp_workloads)

# Microbenchmarks: deterministic kernels over the hot structures and
# cycle loops, reporting per-kernel wall time as micro_* phases in the
# standard JSON artifact (gated by tools/bench_gate.py micro).
# The micro_ prefix keeps them out of the bench_* shape-check globs.
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
