# Run with: cmake -DSIM_CLI=<path to sim_cli> -P sim_cli_crash_schedule_test.cmake
#
# A --crash-schedule restart without :fresh keeps the node's state, which
# lives only in its disk log: without --data-dir, sim_cli must exit 2 before
# running anything. Fresh restarts and never-restarting crashes need no store.
execute_process(COMMAND ${SIM_CLI} --users=4 --rounds=1 --crash-schedule=2:5:0,1:5:10
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2 OR NOT err MATCHES "restart of node 1 keeps its state, which needs --data-dir")
  message(FATAL_ERROR "stateful restart without --data-dir: exit ${code}, stderr: ${err}")
endif()

execute_process(COMMAND ${SIM_CLI} --users=4 --rounds=0 --crash-schedule=1:5:10:fresh,2:5:0
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "fresh restart without --data-dir: exit ${code}, stderr: ${err}")
endif()
