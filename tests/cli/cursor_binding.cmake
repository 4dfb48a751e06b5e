# A --cursor journal binds its campaign: fbfuzz must refuse a journal
# whose header records different campaign parameters — here the exact
# header an older build wrote, which still bound the dispatch-backend
# knob that no longer exists — and must resume its own.
#
#   cmake -DFBFUZZ=path/to/fbfuzz -DWORK=scratch/dir -P cursor_binding.cmake
file(MAKE_DIRECTORY "${WORK}")
set(cursor "${WORK}/cursor.txt")
set(campaign --seed 1 --runs 3 --no-swref --quiet --cursor "${cursor}")

file(WRITE "${cursor}"
    "fbfuzz-cursor v2 seed=1 runs=3 faults=0 fault-seed=0 swref=0 "
    "max-cycles=5000000 shards=0:1024 predecode=1 topology=flat\n"
    "done 0 pass\n")
execute_process(COMMAND "${FBFUZZ}" ${campaign}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "fbfuzz resumed a journal of another campaign")
endif()
string(FIND "${err}" "records a different campaign" refused)
if(refused EQUAL -1)
    message(FATAL_ERROR "no campaign-mismatch diagnosis: ${err}")
endif()

file(REMOVE "${cursor}")
execute_process(COMMAND "${FBFUZZ}" ${campaign}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fresh campaign exited ${rc}: ${out}${err}")
endif()
execute_process(COMMAND "${FBFUZZ}" ${campaign}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "resuming past 3 recorded seed" resumed)
if(NOT rc EQUAL 0 OR resumed EQUAL -1)
    message(FATAL_ERROR "own journal did not resume (exit ${rc}): ${err}")
endif()
message(STATUS "cursor journal refuses another campaign, resumes its own")
