#===- tools/CheckCompileThreads.cmake - a compile starts no thread --------===#
#
# Part of the PIMFlow reproduction, released under the MIT license.
#
# Runs a cold `pimflow run <net>` with the driver's defaults in a fresh
# directory and checks that its flight dump holds events of one thread
# only: the search profiles its candidates on the caller's thread.
#
#   cmake -DPIMFLOW=<pimflow> -DNET=<net> -DOUT=<dir> \
#         -P tools/CheckCompileThreads.cmake
#===----------------------------------------------------------------------===#

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
execute_process(COMMAND "${PIMFLOW}" run "${NET}" "--dir=${OUT}"
                        "--flight-dump=${OUT}/flight.txt"
                RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "pimflow run ${NET} exited with ${Rc}")
endif()

file(STRINGS "${OUT}/flight.txt" Header REGEX "^# events: ")
string(FIND "${Header}" "(last 256 per thread, 1 thread)" Pos)
if(Pos EQUAL -1)
  message(FATAL_ERROR "a cold run recorded events on more than one "
                      "thread: '${Header}'")
endif()
