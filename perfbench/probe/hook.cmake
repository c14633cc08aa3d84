# Injected into the vpsim project with
#   cmake -DCMAKE_PROJECT_vpsim_INCLUDE=<this file>
# The deferred include runs at the end of the root CMakeLists, so the
# probe target is defined in the root scope with the same standard,
# warnings and build type as the figure binaries it is compared with.
# EVAL pins the paths now; a deferred call would expand them later, in
# the root's scope.
cmake_language(EVAL CODE
    "cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]]
         CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
