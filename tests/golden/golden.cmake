# Golden outputs of the paper benches: runs each bench below and byte-compares
# its stdout with tests/golden/<bench>.txt, or rewrites those files.
#
#   cmake -DBENCH_DIR=build/bench -DGOLDEN_DIR=tests/golden \
#         -DOUT_DIR=build/golden_out -P tests/golden/golden.cmake
#   cmake -DBENCH_DIR=build/bench -DGOLDEN_DIR=tests/golden -DUPDATE=ON \
#         -P tests/golden/golden.cmake        (what regenerate.sh runs)
#
# Every bench here prints the same stdout at any --threads; wall-clock
# figures go to stderr. The serving and overhead benches
# (bench_serve_load, bench_perf_model, bench_obs_overhead,
# bench_contracts_overhead) time themselves and are not listed.

set(GOLDEN_BENCHES
  bench_ablations
  bench_diagnosis_ninecases
  bench_fault_scaling
  bench_fig1_models
  bench_fig2_fixed_time_types
  bench_fig3_fixed_size_types
  bench_fig4_mapreduce_speedup
  bench_fig5_terasort_inscaling
  bench_fig6_scaling_factors
  bench_fig7_ipso_prediction
  bench_fig8_collab_filtering
  bench_fig9_spark_fixed_time
  bench_fig10_spark_fixed_size
  bench_functional_grounding
  bench_laws_special_cases
  bench_memory_bounded
  bench_reproduction_scoreboard
  bench_scaleout_vs_scaleup
  bench_solution_space
  bench_statistical_stragglers)

foreach(var BENCH_DIR GOLDEN_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden.cmake: pass -D${var}=...")
  endif()
endforeach()
if(NOT UPDATE)
  if(NOT DEFINED OUT_DIR)
    message(FATAL_ERROR "golden.cmake: pass -DOUT_DIR=... (or -DUPDATE=ON)")
  endif()
  file(MAKE_DIRECTORY "${OUT_DIR}")
  find_program(DIFF_PROGRAM diff)
endif()

set(mismatched "")
foreach(bench IN LISTS GOLDEN_BENCHES)
  set(golden "${GOLDEN_DIR}/${bench}.txt")
  if(UPDATE)
    set(out "${golden}")
  else()
    set(out "${OUT_DIR}/${bench}.txt")
  endif()
  execute_process(COMMAND "${BENCH_DIR}/${bench}"
                  OUTPUT_FILE "${out}"
                  ERROR_VARIABLE stderr_text
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${bench} exited with '${rc}':\n${stderr_text}")
    list(APPEND mismatched ${bench})
  elseif(UPDATE)
    message(STATUS "wrote ${golden}")
  else()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${golden}" "${out}"
                    RESULT_VARIABLE differs)
    if(differs)
      list(APPEND mismatched ${bench})
      if(DIFF_PROGRAM)
        execute_process(COMMAND "${DIFF_PROGRAM}" -u "${golden}" "${out}"
                        OUTPUT_VARIABLE delta)
      else()
        set(delta "(no diff program; compare the two files)")
      endif()
      message(SEND_ERROR "${bench}: stdout differs from ${golden}\n${delta}")
    endif()
  endif()
endforeach()

list(LENGTH GOLDEN_BENCHES total)
if(mismatched)
  message(FATAL_ERROR "golden outputs: failed for ${mismatched}")
endif()
if(NOT UPDATE)
  message(STATUS "golden outputs: all ${total} benches byte-identical")
endif()
