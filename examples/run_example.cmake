# Runs one example program (-DEXAMPLE=path) as a ctest smoke case: it must
# exit 0 and print at least one data row of a core::Table (a row after the
# |---|---| rule).
execute_process(COMMAND ${EXAMPLE} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}")
endif()
if(NOT out MATCHES "\\|-[-|]*\\|\n\\| ")
  message(FATAL_ERROR "${EXAMPLE} printed no table row")
endif()
