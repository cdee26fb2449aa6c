# The committed DCI traces must be exactly what their generator writes:
# regenerate them into OUT_DIR and compare every file with traces/.
# Invoked as:
#   cmake -D PYTHON=<python3> -D SOURCE_ROOT=<repo> -D OUT_DIR=<dir> -P traces_pinned.cmake
file(REMOVE_RECURSE ${OUT_DIR})
execute_process(
    COMMAND ${PYTHON} ${SOURCE_ROOT}/scripts/gen_traces.py ${OUT_DIR}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "scripts/gen_traces.py exited with ${rc}")
endif()
file(GLOB committed RELATIVE ${SOURCE_ROOT}/traces ${SOURCE_ROOT}/traces/*.csv)
file(GLOB generated RELATIVE ${OUT_DIR} ${OUT_DIR}/*.csv)
list(SORT committed)
list(SORT generated)
if(NOT committed STREQUAL generated)
    message(FATAL_ERROR "traces/ holds [${committed}] but the generator writes [${generated}]")
endif()
foreach(name IN LISTS committed)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            ${SOURCE_ROOT}/traces/${name} ${OUT_DIR}/${name}
        RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
        message(FATAL_ERROR "traces/${name} differs from what scripts/gen_traces.py "
                            "writes; regenerate it with scripts/gen_traces.py")
    endif()
endforeach()
