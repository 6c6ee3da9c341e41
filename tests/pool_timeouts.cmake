# Included by ctest after the discovered gtest cases. Pool tests whose
# failure mode is a hang (a worker waiting on its own pool, a caller that
# never runs an index) fail after 60 s instead of the 300 s default.
set_tests_properties(
  ThreadPool.NestedParallelForFromWorkersThreeLevelsDeep
  ThreadPool.CallerIndexExceptionIsRethrownAndPoolStillWorks
  PROPERTIES TIMEOUT 60)
