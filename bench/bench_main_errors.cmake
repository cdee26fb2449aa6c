# Bench mains fail cleanly. A run-time error (here an --obs-out prefix in a
# missing directory) is one "error:" line and exit status 1, not an abort;
# --obs-out on a bench that runs no obs:: hub is an error naming the flag,
# not a silent no-op.
# Invoked as:
#   cmake -D FIG09_EXE=<path> -D FIG18_EXE=<path> -D WORK_DIR=<dir> -P bench_main_errors.cmake
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
