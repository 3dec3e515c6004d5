#===- tools/CheckCompileThreads.cmake - a pimflow run starts no thread ----===#
#
# Part of the PIMFlow reproduction, released under the MIT license.
#
# Runs `pimflow <ARGS>` (space-separated) with the driver's defaults in a
# fresh working directory, which is also the default --dir, and checks
# that its flight dump holds events of one thread only: every verb, serve
# included, runs on the caller's thread.
#
#   cmake -DPIMFLOW=<pimflow> "-DARGS=<verb> <net> [flags]" -DOUT=<dir> \
#         -P tools/CheckCompileThreads.cmake
#===----------------------------------------------------------------------===#

separate_arguments(Args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
execute_process(COMMAND "${PIMFLOW}" ${Args} "--flight-dump=${OUT}/flight.txt"
                WORKING_DIRECTORY "${OUT}" RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "pimflow ${ARGS} exited with ${Rc}")
endif()

file(STRINGS "${OUT}/flight.txt" Header REGEX "^# events: ")
string(FIND "${Header}" "(last 256 per thread, 1 thread)" Pos)
if(Pos EQUAL -1)
  message(FATAL_ERROR "pimflow ${ARGS} recorded events on more than one "
                      "thread: '${Header}'")
endif()
