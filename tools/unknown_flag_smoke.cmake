# A flag a tool does not accept must be refused before any work: exit 2 with
# "unknown argument: FLAG" on stderr.  TOOL is the binary, ARGS its command
# line as one space-separated string.  Driven by ctest.
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${argv}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown argument: ${FLAG}\n")
  message(FATAL_ERROR "expected exit 2 and 'unknown argument: ${FLAG}', got "
                      "${rc}: ${out}${err}")
endif()
