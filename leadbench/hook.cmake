# Passed as CMAKE_PROJECT_INCLUDE when run.py configures the repository's
# root CMakeLists.txt. It defers including leadbench/CMakeLists.txt until
# the root directory has been processed, so the benchmark target sees
# every setting the root project makes while the repository's own build
# files never name it. (While project() runs this file,
# CMAKE_CURRENT_LIST_DIR names the root, so the path comes from
# CMAKE_PROJECT_INCLUDE itself.)
if(NOT LEADBENCH_HOOKED)
  set(LEADBENCH_HOOKED ON)
  get_filename_component(leadbench_dir "${CMAKE_PROJECT_INCLUDE}" DIRECTORY)
  cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL
    include "${leadbench_dir}/CMakeLists.txt")
endif()
