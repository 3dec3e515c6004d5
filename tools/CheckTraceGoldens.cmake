#===- tools/CheckTraceGoldens.cmake - pin the emitted PIM streams ---------===#
#
# Part of the PIMFlow reproduction, released under the MIT license.
#
# Runs `pimflow trace toy` into a fresh directory and checks that it writes
# exactly the four kernel dumps committed in tools/testdata/, byte for
# byte:
#
#   cmake -DPIMFLOW=<pimflow> -DOUT=<dir> -DGOLDEN=<dir> \
#         -P tools/CheckTraceGoldens.cmake
#===----------------------------------------------------------------------===#

set(Kernels conv2d_1 conv2d_4 conv2d_9.pim gemm_15)

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
execute_process(COMMAND "${PIMFLOW}" trace toy "--dir=${OUT}"
                RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "pimflow trace toy exited with ${Rc}")
endif()

file(GLOB Dumps "${OUT}/*.trace")
list(LENGTH Dumps NumDumps)
list(LENGTH Kernels NumKernels)
if(NOT NumDumps EQUAL NumKernels)
  message(FATAL_ERROR "pimflow trace toy wrote ${NumDumps} dumps, "
                      "expected ${NumKernels}")
endif()
foreach(Kernel IN LISTS Kernels)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${OUT}/toy.${Kernel}.trace"
                          "${GOLDEN}/toy.${Kernel}.trace"
                  RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "toy.${Kernel}.trace differs from its golden")
  endif()
endforeach()
