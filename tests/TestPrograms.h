//===- tests/TestPrograms.h - Shared program builders for tests -*- C++ -*-===//
///
/// \file
/// Small bytecode programs used across the test suite. Each builder
/// returns a verified Program; helpers run methods under both engines and
/// compare results.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_TESTS_TESTPROGRAMS_H
#define JITML_TESTS_TESTPROGRAMS_H

#include "bytecode/Builder.h"
#include "bytecode/Verifier.h"
#include "runtime/VirtualMachine.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

namespace jitml::testing {

/// sumToN(n): `int s = 0; for (int i = 0; i < n; i++) s += i; return s;`
inline uint32_t addSumToN(Program &P, const char *Name = "sumToN") {
  MethodBuilder MB(P, Name, -1, MF_Static | MF_Public,
                   {DataType::Int32}, DataType::Int32);
  uint32_t S = MB.addLocal(DataType::Int32);
  uint32_t I = MB.addLocal(DataType::Int32);
  auto Head = MB.newLabel();
  auto Exit = MB.newLabel();
  MB.constI(DataType::Int32, 0).store(S);
  MB.constI(DataType::Int32, 0).store(I);
  MB.place(Head);
  MB.load(I).load(0).ifCmp(BcCond::Ge, Exit);
  MB.load(S).load(I).binop(BcOp::Add, DataType::Int32).store(S);
  MB.inc(I, 1);
  MB.gotoLabel(Head);
  MB.place(Exit);
  MB.load(S).retValue(DataType::Int32);
  return MB.finish();
}

/// fib(n) computed recursively (exercises calls and branches).
inline uint32_t addFib(Program &P) {
  MethodInfo Proto;
  Proto.Name = "fib";
  Proto.Flags = MF_Static | MF_Public;
  Proto.ArgTypes = {DataType::Int32};
  Proto.ReturnType = DataType::Int32;
  uint32_t Self = P.declarePrototype(std::move(Proto));

  MethodBuilder MB(P, Self);
  auto Recurse = MB.newLabel();
  MB.load(0).constI(DataType::Int32, 2).ifCmp(BcCond::Ge, Recurse);
  MB.load(0).retValue(DataType::Int32);
  MB.place(Recurse);
  MB.load(0).constI(DataType::Int32, 1).binop(BcOp::Sub, DataType::Int32);
  MB.call(Self);
  MB.load(0).constI(DataType::Int32, 2).binop(BcOp::Sub, DataType::Int32);
  MB.call(Self);
  MB.binop(BcOp::Add, DataType::Int32).retValue(DataType::Int32);
  return MB.finish();
}

/// kernel(a, b): constant-trip-count loop with a hoistable invariant and a
/// strength-reducible induction multiply:
///   `int s = 0; for (int i = 0; i < 256; i++) s += (a*b + 11) + i*3;
///    return s;`
inline uint32_t addConstKernel(Program &P) {
  MethodBuilder MB(P, "kernel", -1, MF_Static | MF_Public,
                   {DataType::Int32, DataType::Int32}, DataType::Int32);
  uint32_t S = MB.addLocal(DataType::Int32);
  uint32_t I = MB.addLocal(DataType::Int32);
  auto Head = MB.newLabel();
  auto Exit = MB.newLabel();
  MB.constI(DataType::Int32, 0).store(S);
  MB.constI(DataType::Int32, 0).store(I);
  MB.place(Head);
  MB.load(I).constI(DataType::Int32, 256).ifCmp(BcCond::Ge, Exit);
  MB.load(S);
  MB.load(0).load(1).binop(BcOp::Mul, DataType::Int32);
  MB.constI(DataType::Int32, 11).binop(BcOp::Add, DataType::Int32);
  MB.load(I).constI(DataType::Int32, 3).binop(BcOp::Mul, DataType::Int32);
  MB.binop(BcOp::Add, DataType::Int32);
  MB.binop(BcOp::Add, DataType::Int32).store(S);
  MB.inc(I, 1);
  MB.gotoLabel(Head);
  MB.place(Exit);
  MB.load(S).retValue(DataType::Int32);
  return MB.finish();
}

/// Builds `main(n)` that calls sumToN(n); returns (program, entry already
/// set). A convenient complete program for VM tests.
inline Program makeSumProgram() {
  Program P;
  uint32_t Sum = addSumToN(P);
  MethodBuilder Main(P, "main", -1, MF_Static | MF_Public,
                     {DataType::Int32}, DataType::Int32);
  Main.load(0).call(Sum).retValue(DataType::Int32);
  uint32_t MainIdx = Main.finish();
  P.setEntryMethod(MainIdx);
  EXPECT_TRUE(verifyProgram(P).ok()) << verifyProgram(P).message();
  return P;
}

/// Runs one method twice — interpreted and force-compiled at \p Level —
/// and expects identical integer results. \p Arg fills every integer
/// parameter slot (methods of any arity accepted).
inline int64_t runBothEngines(Program &P, uint32_t Method, int64_t Arg,
                              OptLevel Level = OptLevel::Hot) {
  std::vector<Value> Args;
  for (DataType T : P.methodAt(Method).ArgTypes)
    Args.push_back(isFloatType(T) ? Value::ofF((double)Arg)
                                  : Value::ofI(Arg));
  VirtualMachine::Config Cfg;
  Cfg.EnableJit = false;
  VirtualMachine Interp(P, Cfg);
  ExecResult RI = Interp.invoke(Method, Args);
  EXPECT_FALSE(RI.Exceptional);

  VirtualMachine::Config JitCfg;
  JitCfg.EnableJit = true;
  JitCfg.Control.Enabled = false;
  VirtualMachine Jit(P, JitCfg);
  Jit.compileMethod(Method, Level);
  ExecResult RJ = Jit.invoke(Method, Args);
  EXPECT_FALSE(RJ.Exceptional);
  EXPECT_EQ(RI.Ret.I, RJ.Ret.I) << "engine mismatch";
  return RI.Ret.I;
}

/// Two-letter codes of every workload program, both suites, paper order.
inline std::vector<std::string> allWorkloadCodes() {
  std::vector<std::string> Codes;
  for (const WorkloadSpec &S : specJvm98Suite())
    Codes.push_back(S.Code);
  for (const WorkloadSpec &S : daCapoSuite())
    Codes.push_back(S.Code);
  return Codes;
}

} // namespace jitml::testing

#endif // JITML_TESTS_TESTPROGRAMS_H
