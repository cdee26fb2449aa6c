# Bench mains fail cleanly. A run-time error (here an --obs-out prefix in a
# missing directory) is one "error:" line and exit status 1, not an abort;
# --obs-out on a bench that runs no obs:: hub is an error naming the flag,
# not a silent no-op.
# Invoked as:
#   cmake -D FIG09_EXE=<path> -D FIG18_EXE=<path> -D BIN_DIR=<dir>
#         -D SCENARIO_DIR=<dir> -D WORK_DIR=<dir> -P bench_main_errors.cmake
set(missing ${WORK_DIR}/bench-main-errors-missing-dir)
file(REMOVE_RECURSE ${missing})

function(expect_error exe pattern)
    execute_process(
        COMMAND ${exe} --quick --jobs 1 --obs-out ${missing}/p
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "${exe} exited with ${rc}, expected 1:\n${err}")
    endif()
    if(NOT err MATCHES "${pattern}")
        message(FATAL_ERROR "${exe} stderr does not match \"${pattern}\":\n${err}")
    endif()
endfunction()

expect_error(${FIG09_EXE} "error: obs: cannot write ")
expect_error(${FIG18_EXE} "error: --obs-out: bench_fig18_coherence ")

# Every driver refuses a flag it does not read (exit status 1, the flag
# named) and a malformed --jobs or an unknown argument (the usage line, exit
# status 2), with nothing printed on stdout, where every bench prints its
# banner first, and no file written.
set(out ${WORK_DIR}/bench-main-errors-out.json)
set(run ${BIN_DIR}/l4span_run)
function(expect_refusal status pattern)
    file(REMOVE ${out})
    execute_process(COMMAND ${ARGN} OUTPUT_VARIABLE stdout ERROR_VARIABLE err
                    RESULT_VARIABLE rc TIMEOUT 120)
    if(NOT rc EQUAL status OR NOT err MATCHES "${pattern}" OR NOT stdout STREQUAL ""
       OR EXISTS ${out})
        message(FATAL_ERROR "${ARGN}: exit ${rc}, expected ${status} and \"${pattern}\""
                            " with no output:\n${stdout}${err}")
    endif()
endfunction()

expect_refusal(1 "^error: --json: bench_fig15_shortcircuit does not read it\n$"
    ${BIN_DIR}/bench_fig15_shortcircuit --json ${out})
expect_refusal(1 "^error: --trace-dir: bench_fig13_video does not read it\n$"
    ${BIN_DIR}/bench_fig13_video --quick --trace-dir /no/such --json ${out})
expect_refusal(1 "^error: --trace-dir: bench_fig09_tcp_grid does not read it\n$"
    ${FIG09_EXE} --quick --trace-dir traces --json ${out})
expect_refusal(1 "^error: --obs-out: the shared_drb family does not read it\n$"
    ${run} ${SCENARIO_DIR}/fig16.json --json ${out} --obs-out ${WORK_DIR}/p)
expect_refusal(2 "unknown argument: --impair-noop\n$"
    ${run} ${SCENARIO_DIR}/fault_chaos_quick.json --json ${out} --impair-noop)
expect_refusal(2 "--jobs takes a whole number >= 0, not \"abc\"\n$"
    ${BIN_DIR}/bench_fig13_video --quick --json ${out} --jobs abc)
expect_refusal(2 "--jobs takes a whole number >= 0, not \"4x\"\n$"
    ${run} ${SCENARIO_DIR}/fig09_quick.json --json ${out} --jobs=4x)

# --export-scenario writes the loaded document in export form, which every
# committed scenario file already is.
execute_process(COMMAND ${run} ${SCENARIO_DIR}/fault_chaos_quick.json --export-scenario ${out})
file(READ ${SCENARIO_DIR}/fault_chaos_quick.json want)
file(READ ${out} got)
if(NOT got STREQUAL want)
    message(FATAL_ERROR "l4span_run --export-scenario wrote:\n${got}")
endif()
