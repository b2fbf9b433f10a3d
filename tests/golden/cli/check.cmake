# Rerun the population CLI commands and compare their stdout byte for
# byte with the golden file beside this script.  This pins the shard
# loop behind measurePopulation (`hcfirst`, serial and chunked) and
# sweepPopulation/popsweep (`popsweep`, in process and two workers).
# A 64-candidate fuzz campaign pins its stdout and its corpus too: its
# REF-synchronized candidates hit thousands of replay phase breaks.
#
#   cmake -DPUDHAMMER=<pudhammer binary> -DOUT_DIR=<scratch dir>
#         -P tests/golden/cli/check.cmake
#
# A mismatch lists the outputs; the fresh files stay in OUT_DIR (copy
# them over the goldens only for an intended change).

set(names
    hcfirst-rh-j1 hcfirst-rh-j2 hcfirst-comra-j1 hcfirst-comra-j2
    hcfirst-simra-j1 hcfirst-simra-j2 popsweep-w0 popsweep-w2
    fuzz-phase-breaks)
# Outputs that also write a corpus, compared with <name>.jsonl.
set(corpora fuzz-phase-breaks)
set(hcfirst-rh-j1 hcfirst --technique=rh --jobs=1)
set(hcfirst-rh-j2 hcfirst --technique=rh --jobs=2)
set(hcfirst-comra-j1 hcfirst --technique=comra --jobs=1)
set(hcfirst-comra-j2 hcfirst --technique=comra --jobs=2)
set(hcfirst-simra-j1 hcfirst --technique=simra --n=8 --jobs=1)
set(hcfirst-simra-j2 hcfirst --technique=simra --n=8 --jobs=2)
set(popsweep-w0 popsweep --workers=0)
set(popsweep-w2 popsweep --workers=2 --dir=${OUT_DIR}/popsweep-w2.dir)
set(fuzz-phase-breaks fuzz --module=HMA81GU7AFR8N-UH --candidates=64
    --seed=790680964 --jobs=2 --chunk=8 --minimize-top=0
    --corpus=${OUT_DIR}/fuzz-phase-breaks.jsonl)

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
    list(FIND corpora ${name} corpus)
    if(NOT corpus EQUAL -1)
        execute_process(
            COMMAND "${CMAKE_COMMAND}" -E compare_files
                    "${OUT_DIR}/${name}.jsonl" "${golden_dir}/${name}.jsonl"
            RESULT_VARIABLE differs)
        if(differs)
            list(APPEND mismatched ${name}.jsonl)
        endif()
    endif()
endforeach()

if(mismatched)
    message(FATAL_ERROR
        "CLI stdout differs from ${golden_dir} for: ${mismatched} "
        "(fresh output in ${OUT_DIR})")
endif()
list(LENGTH names n)
message(STATUS "${n} CLI outputs match their goldens")
