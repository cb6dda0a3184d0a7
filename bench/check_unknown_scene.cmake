# Runs a JSON bench driver with an unknown --scenes name and fails unless it
# exits 1 naming the scene and leaves its output directory empty (no
# truncated BENCH_*.json behind).
#   cmake -DDRIVER=<exe> -DOUT_DIR=<dir> [-DEXTRA=<flag>] -P check_unknown_scene.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
  COMMAND "${DRIVER}" --scenes=train,nope "--out-dir=${OUT_DIR}" ${EXTRA}
  RESULT_VARIABLE rc
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit code 1, got ${rc}: ${err}")
endif()
if(NOT err MATCHES "unknown scene: nope")
  message(FATAL_ERROR "the error does not name the scene: ${err}")
endif()
file(GLOB left "${OUT_DIR}/*")
if(left)
  message(FATAL_ERROR "the driver left files behind: ${left}")
endif()
