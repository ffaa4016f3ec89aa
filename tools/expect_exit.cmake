# Runs PROGRAM with ARGS (one string, split like a shell command line) and
# fails unless it exits with EXPECT_CODE and its stderr matches
# EXPECT_STDERR. Used by the CLI checks in tools/CMakeLists.txt:
#
#   cmake -DPROGRAM=... -DARGS="run fig11-smoke --jobs abc"
#         -DEXPECT_CODE=2 -DEXPECT_STDERR="^usage:" -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "exit status '${code}', expected ${EXPECT_CODE}\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}'\n${err}")
endif()
