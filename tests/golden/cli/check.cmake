# Rerun the population CLI commands and compare their stdout byte for
# byte with the golden file beside this script.  This pins the shard
# loop behind measurePopulation (`hcfirst`, serial and chunked) and
# sweepPopulation/popsweep (`popsweep`, in process and two workers).
#
#   cmake -DPUDHAMMER=<pudhammer binary> -DOUT_DIR=<scratch dir>
#         -P tests/golden/cli/check.cmake
#
# A mismatch lists the outputs; the fresh files stay in OUT_DIR (copy
# them over the goldens only for an intended change).

set(names
    hcfirst-rh-j1 hcfirst-rh-j2 hcfirst-comra-j1 hcfirst-comra-j2
    hcfirst-simra-j1 hcfirst-simra-j2 popsweep-w0 popsweep-w2)
set(hcfirst-rh-j1 hcfirst --technique=rh --jobs=1)
set(hcfirst-rh-j2 hcfirst --technique=rh --jobs=2)
set(hcfirst-comra-j1 hcfirst --technique=comra --jobs=1)
set(hcfirst-comra-j2 hcfirst --technique=comra --jobs=2)
set(hcfirst-simra-j1 hcfirst --technique=simra --n=8 --jobs=1)
set(hcfirst-simra-j2 hcfirst --technique=simra --n=8 --jobs=2)
set(popsweep-w0 popsweep --workers=0)
set(popsweep-w2 popsweep --workers=2 --dir=${OUT_DIR}/popsweep-w2.dir)

get_filename_component(golden_dir "${CMAKE_CURRENT_LIST_FILE}" DIRECTORY)
# A leftover coordination directory would turn the worker run into a
# resume; start from nothing.
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(mismatched "")
foreach(name IN LISTS names)
    set(out "${OUT_DIR}/${name}.txt")
    execute_process(
        COMMAND "${PUDHAMMER}" ${${name}}
        OUTPUT_FILE "${out}"
        ERROR_QUIET
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "pudhammer ${${name}}: ${rc}")
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
        "CLI stdout differs from ${golden_dir} for: ${mismatched} "
        "(fresh output in ${OUT_DIR})")
endif()
list(LENGTH names n)
message(STATUS "${n} CLI outputs match their goldens")
