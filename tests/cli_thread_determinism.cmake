# Thread-count determinism of a whole tuning session: restune_cli must print
# byte-identical output under RESTUNE_NUM_THREADS=1 and =8, because every
# parallel loop reduces in a fixed order.
#
#   cmake -DCLI=<path to restune_cli> -P cli_thread_determinism.cmake
if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to restune_cli>")
endif()
foreach(threads 1 8)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env RESTUNE_NUM_THREADS=${threads}
            ${CLI} --workload twitter --instance E --resource cpu
            --iterations 25 --seed 7 --method restune
    OUTPUT_VARIABLE out_${threads}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "restune_cli exited ${rc} with ${threads} thread(s)")
  endif()
endforeach()
if(NOT out_1 STREQUAL out_8)
  message(FATAL_ERROR "restune_cli output differs between 1 and 8 threads:\n"
                      "--- 1 thread ---\n${out_1}\n--- 8 threads ---\n${out_8}")
endif()
message(STATUS "restune_cli output identical under 1 and 8 threads")
