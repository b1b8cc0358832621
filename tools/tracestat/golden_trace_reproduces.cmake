# Regenerates the golden trace into the build tree and requires it to
# match the committed copy byte for byte, pinning the order of every
# lifecycle and fault event the replay publishes.
#
# Usage: cmake -DGENERATOR=<tracestat_make_golden> -DOUTPUT=<file>
#              -DGOLDEN=<tests/data/tracestat_golden.trace.json> -P <this>
execute_process(COMMAND ${GENERATOR} ${OUTPUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${GENERATOR} failed with status ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT} ${GOLDEN}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OUTPUT} differs from ${GOLDEN}")
endif()
