# Regenerate the SARIF and the JSON of every `pudhammer lint --program=`
# name and compare each byte for byte with the golden file beside this
# script.  This pins the linter, the abstract interpreter, the
# mitigation certifier and the dataflow pass together; the JSON also
# pins the exact program duration (`duration_ps`), which SARIF omits.
#
#   cmake -DPUDHAMMER=<pudhammer binary> -DOUT_DIR=<scratch dir>
#         -P tests/golden/lint/check.cmake
#
# A mismatch lists the outputs; the fresh files stay in OUT_DIR (copy
# them over the goldens only for an intended change).

set(programs
    rh comra simra combined trr-rh trr-simra
    demo-subtrp demo-broken demo-ctrl-clobber demo-majority-geom
    demo-unbalanced demo-bad-wr)

get_filename_component(golden_dir "${CMAKE_CURRENT_LIST_FILE}" DIRECTORY)
file(MAKE_DIRECTORY "${OUT_DIR}")
set(mismatched "")
foreach(program IN LISTS programs)
    foreach(format IN ITEMS sarif json)
        set(out "${OUT_DIR}/${program}.${format}")
        execute_process(
            COMMAND "${PUDHAMMER}" lint --program=${program}
                    --effects --dataflow
                    --mitigations=trr,prac,para,graphene --${format}
            OUTPUT_FILE "${out}"
            RESULT_VARIABLE rc)
        # Exit status 1 only reports error-severity findings.
        if(NOT rc MATCHES "^[01]$")
            message(FATAL_ERROR
                "pudhammer lint --program=${program} --${format}: ${rc}")
        endif()
        execute_process(
            COMMAND "${CMAKE_COMMAND}" -E compare_files
                    "${out}" "${golden_dir}/${program}.${format}"
            RESULT_VARIABLE differs)
        if(differs)
            list(APPEND mismatched ${program}.${format})
        endif()
    endforeach()
endforeach()

if(mismatched)
    message(FATAL_ERROR
        "lint output differs from ${golden_dir} for: ${mismatched} "
        "(fresh output in ${OUT_DIR})")
endif()
list(LENGTH programs n)
message(STATUS "${n} lint SARIF and JSON outputs match their goldens")
