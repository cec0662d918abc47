# bench_compare must reject a document that lists one (design, metric) key
# twice, not compare its first record and drop the rest: exit 2, naming the
# key and the file.  Driven by ctest.
file(MAKE_DIRECTORY ${WORK})
foreach(doc baseline:99 fresh:12345)
  string(REPLACE ":" ";" doc ${doc})
  list(GET doc 0 name)
  list(GET doc 1 second)
  set(record "{\"design\": \"Design 1\", \"metric\": \"instructions\"")
  file(WRITE ${WORK}/${name}.json "{\n  \"records\": [\n"
       "    ${record}, \"value\": 10, \"unit\": \"count\"},\n"
       "    ${record}, \"value\": ${second}, \"unit\": \"count\"}\n  ]\n}\n")
endforeach()
execute_process(COMMAND ${COMPARE} ${WORK}/baseline.json ${WORK}/fresh.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES
   "repeated record 'Design 1 / instructions' in [^\n]*baseline\\.json")
  message(FATAL_ERROR "expected exit 2 naming the key and the file, got "
                      "${rc}: ${out}${err}")
endif()
