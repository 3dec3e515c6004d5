#===- tools/CheckExitCode.cmake - a command exits with a given code ------===#
#
# Part of the PIMFlow reproduction, released under the MIT license.
#
# Runs EXE with the space-separated ARGS and fails unless it exits with RC
# and, when SLUG is set, names SLUG on stderr. A WILL_FAIL test passes on
# any non-zero exit, an abort included; this pins the exact code.
#
#   cmake -DEXE=<exe> "-DARGS=<args>" -DRC=<code> [-DSLUG=<text>] \
#         -P tools/CheckExitCode.cmake
#===----------------------------------------------------------------------===#

separate_arguments(Args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${Args}
                RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err)
if(NOT Rc EQUAL RC)
  message(FATAL_ERROR "'${EXE} ${ARGS}' exited with '${Rc}', expected "
                      "${RC}:\n${Err}")
endif()
if(SLUG)
  string(FIND "${Err}" "${SLUG}" Pos)
  if(Pos EQUAL -1)
    message(FATAL_ERROR "'${EXE} ${ARGS}' did not name ${SLUG} on "
                        "stderr:\n${Err}")
  endif()
endif()
