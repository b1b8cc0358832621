# Reruns `trace_replay` and requires its stdout (workload summary plus the
# text run report, SLO line and throughput timeline included) to match the
# committed copy byte for byte.
#
# Usage: cmake -DREPLAY=<trace_replay> -DOUTPUT=<file>
#              -DGOLDEN=<tests/data/trace_replay_azure120.golden.txt> -P <this>
execute_process(COMMAND ${REPLAY} --synthetic azure --duration 120
                OUTPUT_FILE ${OUTPUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${REPLAY} failed with status ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT} ${GOLDEN}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OUTPUT} differs from ${GOLDEN}")
endif()
