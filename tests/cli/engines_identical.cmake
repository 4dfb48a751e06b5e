# fbsim's report (cycles, stats, every printed counter) must be
# byte-identical between the default fast engine and the per-cycle
# reference loop (--no-fast-forward).
#
#   cmake -DFBSIM=path/to/fbsim -DWORK=scratch/dir -P engines_identical.cmake
file(MAKE_DIRECTORY "${WORK}")
set(prog "${WORK}/engines.fbasm")
file(WRITE "${prog}" "        settag 1
        setmask 3
        li r1, 0
        li r2, 2000
loop:
        addi r3, r3, 1
.region 1
        addi r4, r4, 1
        addi r1, r1, 1
        bne r1, r2, loop
.endregion
        st r3, 100(r0)
        halt
")

set(common --procs 2 --jitter 0.4 --seed 11)
execute_process(COMMAND "${FBSIM}" ${common} "${prog}"
    RESULT_VARIABLE fast_rc OUTPUT_VARIABLE fast_out ERROR_VARIABLE err)
if(NOT fast_rc EQUAL 0)
    message(FATAL_ERROR "fbsim (fast engine) exited ${fast_rc}: ${err}")
endif()
execute_process(COMMAND "${FBSIM}" ${common} --no-fast-forward "${prog}"
    RESULT_VARIABLE ref_rc OUTPUT_VARIABLE ref_out ERROR_VARIABLE err)
if(NOT ref_rc EQUAL 0)
    message(FATAL_ERROR "fbsim --no-fast-forward exited ${ref_rc}: ${err}")
endif()
if(NOT fast_out STREQUAL ref_out)
    message(FATAL_ERROR "fbsim report differs between engines\n"
        "--- fast engine\n${fast_out}\n--- --no-fast-forward\n${ref_out}")
endif()
string(FIND "${fast_out}" "cycles" has_cycles)
if(has_cycles EQUAL -1)
    message(FATAL_ERROR "fbsim report has no cycle count:\n${fast_out}")
endif()
message(STATUS "fbsim report is byte-identical on both engines")
