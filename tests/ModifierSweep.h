//===- tests/ModifierSweep.h - body of the modifier semantics sweep -------===//
//
// Shared by ModifierSweep (tests/ModifierPropertyTest.cpp) and
// HotModifierSweep (tests/HotModifierSweepTest.cpp), which run the same
// check at different optimization levels.
//
//===----------------------------------------------------------------------===//

#ifndef JITML_TESTS_MODIFIERSWEEP_H
#define JITML_TESTS_MODIFIERSWEEP_H

#include "runtime/VirtualMachine.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace jitml {

/// Compiles every kernel of benchmark \p Code at \p Level under the null,
/// all-off and seeded random modifiers and checks each run against the
/// interpreter's checksum.
inline void checkModifiersPreserveSemantics(const std::string &Code,
                                            OptLevel Level) {
  Program P = buildWorkload(workloadByCode(Code));

  // Reference checksum from the pure interpreter.
  int64_t Reference = workloadChecksum(P, 1);

  // Kernels to force-compile with each modifier: every generated kernel
  // plus the driver.
  std::vector<uint32_t> Methods;
  for (uint32_t M = 0; M < P.numMethods(); ++M)
    if (P.methodAt(M).Name.find("Kernel") != std::string::npos ||
        P.methodAt(M).Name == "main")
      Methods.push_back(M);

  Rng R(mix64(0xabcdef ^ (uint64_t)Level ^ P.numMethods()));
  std::vector<PlanModifier> Modifiers{
      PlanModifier(), // null: the original plan
      PlanModifier(BitSet64::allZero(NumTransformations)), // everything off
  };
  for (PlanModifier &M : generateRandomizedModifiers(R, 6))
    Modifiers.push_back(M);
  for (PlanModifier &M : generateProgressiveModifiers(R, 4))
    Modifiers.push_back(M);

  for (const PlanModifier &Mod : Modifiers) {
    VirtualMachine::Config Cfg;
    Cfg.Control.Enabled = false; // plans pinned by us
    VirtualMachine VM(P, Cfg);
    for (uint32_t M : Methods)
      VM.compileWithPlan(M, planForLevel(Level), Mod);
    ExecResult Res = VM.run({Value::ofI(0)});
    ASSERT_FALSE(Res.Exceptional)
        << "modifier " << Mod.enabledMask().toString() << " threw";
    int64_t Got = (int64_t)mix64((uint64_t)Res.Ret.I);
    EXPECT_EQ(Got, Reference)
        << "modifier " << Mod.enabledMask().toString() << " at "
        << optLevelName(Level) << " changed semantics";
  }
}

} // namespace jitml

#endif // JITML_TESTS_MODIFIERSWEEP_H
