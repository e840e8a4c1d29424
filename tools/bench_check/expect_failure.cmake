# Runs a command and passes only when it exits with EXPECT_EXIT *and* its
# output matches EXPECT_REGEX: a "must fail" test that also pins why the
# command failed, so an unrelated error (a missing fixture, a bad flag)
# cannot pass for the expected one.
#
#   cmake -DCOMMAND=exe|arg|arg -DEXPECT_EXIT=1 -DEXPECT_REGEX=... -P expect_failure.cmake
#
# COMMAND separates its words with '|' (a ';' list would be split by
# add_test before it reaches this script).
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL EXPECT_EXIT)
  message(FATAL_ERROR "expected exit status ${EXPECT_EXIT}, got ${status}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match '${EXPECT_REGEX}':\n${out}${err}")
endif()
