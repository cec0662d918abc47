# Replays the campaign files in tests/fixtures/campaign (see its README)
# through faultcampaign: resuming the checkpoint taken after the first of
# three chunks, and merging the three shard reports in two argument orders,
# must each print the recorded unsharded report byte for byte.  The files
# were written by an earlier build, so this pins the checkpoint and report
# formats across versions.  Driven by ctest.
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
# A resumed run rewrites its checkpoint, so it resumes a copy.
file(COPY ${FIXTURES}/first_chunk.ckpt DESTINATION ${WORK})

set(campaign --design 1 --faults seu,glitch,sa0,sa1 --trials 300
             --samples 16 --seed 24)

function(run what)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what} failed (${rc}): ${err}")
  endif()
endfunction()

function(expect_report path)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${path}
                          ${FIXTURES}/report.json RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${path} differs from the recorded report")
  endif()
endfunction()

run(resume ${FAULTCAMPAIGN} ${campaign} --checkpoint ${WORK}/first_chunk.ckpt
    --checkpoint-every 100 --out ${WORK}/resumed.json)
expect_report(${WORK}/resumed.json)

run(merge ${FAULTCAMPAIGN} merge ${WORK}/merged_012.json
    ${FIXTURES}/shard0.json ${FIXTURES}/shard1.json ${FIXTURES}/shard2.json)
expect_report(${WORK}/merged_012.json)

run(merge ${FAULTCAMPAIGN} merge ${WORK}/merged_201.json
    ${FIXTURES}/shard2.json ${FIXTURES}/shard0.json ${FIXTURES}/shard1.json)
expect_report(${WORK}/merged_201.json)
