# The serving benchmark's targets, included into the root project's scope
# by add_to_root.cmake (see there and run.py):
#
#   cmake -S . -B .bench_build/serving \
#         -DCMAKE_PROJECT_ansible_wisdom_INCLUDE=$PWD/bench/serving/add_to_root.cmake
#   cmake --build .bench_build/serving -j4 --target bench_serving bench_serving_stats_test
#   (cd .bench_build/serving && ctest -R bench_serving --output-on-failure)
add_executable(bench_serving
  ${WISDOM_BENCH_SERVING_DIR}/main.cpp
  ${WISDOM_BENCH_SERVING_DIR}/client.cpp
  ${WISDOM_BENCH_SERVING_DIR}/recipe.cpp
  ${WISDOM_BENCH_SERVING_DIR}/workload.cpp
)
target_link_libraries(bench_serving PRIVATE wisdom_net wisdom_serve
                      wisdom_core wisdom_data wisdom_model wisdom_text)
target_compile_definitions(bench_serving PRIVATE
                           WISDOM_BUILD_TYPE="${CMAKE_BUILD_TYPE}")

add_executable(bench_serving_stats_test
               ${WISDOM_BENCH_SERVING_DIR}/stats_test.cpp)

add_test(NAME bench_serving_stats COMMAND bench_serving_stats_test)
add_test(NAME bench_serving_sweep_stats
         COMMAND python3 ${WISDOM_BENCH_SERVING_DIR}/test_sweep.py)
add_test(NAME bench_serving_quick
         COMMAND python3 ${WISDOM_BENCH_SERVING_DIR}/quick.py
                 --binary $<TARGET_FILE:bench_serving>)
set_tests_properties(bench_serving_quick PROPERTIES TIMEOUT 600)
