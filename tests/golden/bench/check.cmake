# Rerun the SiMRA-heavy benches and compare their stdout byte for byte
# with the golden file beside this script.  This pins the majority
# merge and the close-time disturbance model behind Figs. 13 and 24 at
# a scale where RowHammer and CoMRA still flip bits.  The two -metrics entries
# also pin the deterministic --metrics listing (counters, histograms of
# simulated quantities), zero-valued lines included; a change that
# moves a counter on purpose regenerates them.
#
#   cmake -DBENCH_DIR=<bench binary dir> -DOUT_DIR=<scratch dir>
#         -P tests/golden/bench/check.cmake
#
# A mismatch lists the outputs; the fresh files stay in OUT_DIR (copy
# them over the goldens only for an intended change).

set(names fig24-trr fig24-para fig13-fast fig13-fast-metrics
    fig24-trr-metrics)
set(fig24-trr bench_fig24_trr_bypass --iterations=1 --hammers=60000
    --jobs=2 --mitigation=trr)
set(fig24-para bench_fig24_trr_bypass --iterations=1 --hammers=60000
    --jobs=2 --mitigation=para)
set(fig13-fast bench_fig13_simra_vs_rh --fast --jobs=2)
set(fig13-fast-metrics bench_fig13_simra_vs_rh --fast --jobs=2 --metrics)
set(fig24-trr-metrics bench_fig24_trr_bypass --iterations=1
    --hammers=60000 --jobs=2 --mitigation=trr --metrics)

get_filename_component(golden_dir "${CMAKE_CURRENT_LIST_FILE}" DIRECTORY)
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(mismatched "")
foreach(name IN LISTS names)
    set(cmd ${${name}})
    list(POP_FRONT cmd bench)
    set(out "${OUT_DIR}/${name}.txt")
    execute_process(
        COMMAND "${BENCH_DIR}/${bench}" ${cmd}
        OUTPUT_FILE "${out}"
        ERROR_QUIET
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${bench} ${cmd}: ${rc}")
    endif()
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${out}" "${golden_dir}/${name}.txt"
        RESULT_VARIABLE differs)
    if(differs)
        list(APPEND mismatched ${name})
    endif()
endforeach()

if(mismatched)
    message(FATAL_ERROR
        "bench stdout differs from ${golden_dir} for: ${mismatched} "
        "(fresh output in ${OUT_DIR})")
endif()
list(LENGTH names n)
message(STATUS "${n} bench outputs match their goldens")
