# Adds the serving benchmark's targets to the root project without editing
# it. run.py configures the repository root with
#   -DCMAKE_PROJECT_ansible_wisdom_INCLUDE=<this file>
# which CMake includes at the end of the root's project() call, before the
# root sets its compile flags and adds src/. So the targets are defined by
# a deferred include of bench_serving.cmake, which runs once the root
# CMakeLists.txt is done, in its scope: bench_serving and the libraries it
# links are compiled with the root build's settings, with no second copy.
set(WISDOM_BENCH_SERVING_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${WISDOM_BENCH_SERVING_DIR}/bench_serving.cmake")
