//===- tests/HotModifierSweepTest.cpp - the modifier sweep at hot ---------===//
//
// ModifierSweep (tests/ModifierPropertyTest.cpp) at the hot level: every
// training benchmark's kernels compiled at hot under the null, all-off and
// seeded random modifiers must compute what the interpreter computes.
//
// gtest prints ModifierSweep's parameter as raw bytes, including its
// std::string's heap pointer, so those test names carry address bytes that
// change with ASLR from one test discovery to the next. Here the parameter
// is the benchmark code alone, which gtest prints as text, so these names
// are stable. The sweep's other levels keep their printed names until the
// whole sweep can be renamed at once (ROADMAP item 2). This file links its
// own executable because adding a registration to jitml_tests moves the
// heap address the other ModifierSweep names print.
//
//===----------------------------------------------------------------------===//

#include "ModifierSweep.h"

#include <gtest/gtest.h>

using namespace jitml;

class HotModifierSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(HotModifierSweep, AnyModifierPreservesSemantics) {
  checkModifiersPreserveSemantics(GetParam(), OptLevel::Hot);
}

namespace {

std::vector<std::string> hotSweepCodes() {
  std::vector<std::string> Codes;
  for (const WorkloadSpec &S : trainingBenchmarks())
    Codes.push_back(S.Code);
  return Codes;
}

std::string hotCaseName(const ::testing::TestParamInfo<std::string> &Info) {
  return Info.param + "_" + optLevelName(OptLevel::Hot);
}

} // namespace

INSTANTIATE_TEST_SUITE_P(TrainingSuite, HotModifierSweep,
                         ::testing::ValuesIn(hotSweepCodes()), hotCaseName);
