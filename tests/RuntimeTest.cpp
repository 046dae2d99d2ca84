//===- tests/RuntimeTest.cpp - VM, engines, clock, control tests ----------===//

#include "TestPrograms.h"

#include "runtime/CompilationControl.h"
#include "runtime/RuntimeOps.h"
#include "runtime/SimClock.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace jitml;
using namespace jitml::testing;

//===----------------------------------------------------------------------===//
// Value semantics shared by both engines
//===----------------------------------------------------------------------===//

TEST(RuntimeOps, IntegerNormalization) {
  EXPECT_EQ(normalizeRtInt(DataType::Int8, 200), -56);
  EXPECT_EQ(normalizeRtInt(DataType::Char, -1), 65535);
  EXPECT_EQ(normalizeRtInt(DataType::Int16, 0x18000), -32768);
  EXPECT_EQ(normalizeRtInt(DataType::Int32, (int64_t)INT32_MAX + 1),
            INT32_MIN);
  EXPECT_EQ(normalizeRtInt(DataType::Int64, -5), -5);
}

TEST(RuntimeOps, DivisionEdgeCases) {
  bool DivByZero = false;
  Value R = evalArith(BcOp::Div, DataType::Int64, Value::ofI(INT64_MIN),
                      Value::ofI(-1), DivByZero);
  EXPECT_FALSE(DivByZero);
  EXPECT_EQ(R.I, INT64_MIN); // Java semantics: overflow wraps
  evalArith(BcOp::Div, DataType::Int32, Value::ofI(1), Value::ofI(0),
            DivByZero);
  EXPECT_TRUE(DivByZero);
  R = evalArith(BcOp::Rem, DataType::Int64, Value::ofI(INT64_MIN),
                Value::ofI(-1), DivByZero);
  EXPECT_FALSE(DivByZero);
  EXPECT_EQ(R.I, 0);
}

TEST(RuntimeOps, FloatToIntSaturation) {
  Value V = convertValue(DataType::Double, DataType::Int64,
                         Value::ofF(1e300));
  EXPECT_EQ(V.I, INT64_MAX);
  V = convertValue(DataType::Double, DataType::Int64, Value::ofF(-1e300));
  EXPECT_EQ(V.I, INT64_MIN);
  V = convertValue(DataType::Double, DataType::Int32,
                   Value::ofF(std::nan("")));
  EXPECT_EQ(V.I, 0);
  V = convertValue(DataType::Double, DataType::Float,
                   Value::ofF(0.1));
  EXPECT_EQ(V.F, (double)(float)0.1);
}

TEST(RuntimeOps, CompareAndCond) {
  EXPECT_EQ(compare3(DataType::Int32, Value::ofI(1), Value::ofI(2)), -1);
  EXPECT_EQ(compare3(DataType::Double, Value::ofF(2.5), Value::ofF(2.5)), 0);
  EXPECT_TRUE(testCond(BcCond::Le, 0));
  EXPECT_FALSE(testCond(BcCond::Gt, 0));
  EXPECT_TRUE(testCond(BcCond::Ne, -1));
}

//===----------------------------------------------------------------------===//
// Exceptions
//===----------------------------------------------------------------------===//

namespace {

/// thrower(x): throws AppError when x < 0, else returns x * 2. The caller
/// catches and returns -1.
Program makeExceptionProgram(uint32_t &CallerOut) {
  Program P;
  uint32_t Exc = ClassBuilder(P, "AppError").finish();
  MethodBuilder T(P, "thrower", -1, MF_Static, {DataType::Int32},
                  DataType::Int32);
  auto Ok = T.newLabel();
  T.load(0).ifZero(BcCond::Ge, Ok);
  T.newObject(Exc).throwRef();
  T.place(Ok);
  T.load(0).constI(DataType::Int32, 2).binop(BcOp::Mul, DataType::Int32);
  T.retValue(DataType::Int32);
  uint32_t Thrower = T.finish();

  MethodBuilder C(P, "caller", -1, MF_Static, {DataType::Int32},
                  DataType::Int32);
  auto Handler = C.newLabel();
  auto Done = C.newLabel();
  uint32_t Start = C.beginTry();
  C.load(0).call(Thrower);
  C.endTry(Start, Handler, (int32_t)Exc);
  C.gotoLabel(Done);
  C.place(Handler);
  C.pop(DataType::Object);
  C.constI(DataType::Int32, -1);
  C.place(Done);
  C.retValue(DataType::Int32);
  CallerOut = C.finish();
  P.setEntryMethod(CallerOut);
  EXPECT_TRUE(verifyProgram(P).ok()) << verifyProgram(P).message();
  return P;
}

} // namespace

TEST(Exceptions, CrossFrameUnwindBothEngines) {
  uint32_t Caller = 0;
  Program P = makeExceptionProgram(Caller);
  EXPECT_EQ(runBothEngines(P, Caller, 21, OptLevel::Hot), 42);
  EXPECT_EQ(runBothEngines(P, Caller, -5, OptLevel::Hot), -1);
}

TEST(Exceptions, UncaughtPropagatesToTop) {
  Program P;
  uint32_t Exc = ClassBuilder(P, "E").finish();
  MethodBuilder MB(P, "boom", -1, MF_Static, {}, DataType::Int32);
  MB.newObject(Exc).throwRef();
  uint32_t M = MB.finish();
  P.setEntryMethod(M);
  VirtualMachine::Config Cfg;
  VirtualMachine VM(P, Cfg);
  ExecResult R = VM.run({});
  EXPECT_TRUE(R.Exceptional);
  EXPECT_EQ(VM.heap().classOf(R.ExcRef), (int32_t)Exc);
}

TEST(Exceptions, ClassFilterSelectsHandler) {
  Program P;
  uint32_t Base = ClassBuilder(P, "Base").finish();
  uint32_t Derived = ClassBuilder(P, "Derived", (int32_t)Base).finish();
  uint32_t Other = ClassBuilder(P, "Other").finish();
  (void)Other;
  MethodBuilder MB(P, "pick", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  auto CatchDerived = MB.newLabel();
  auto CatchBase = MB.newLabel();
  auto Done = MB.newLabel();
  uint32_t Start = MB.beginTry();
  auto ThrowBase = MB.newLabel();
  MB.load(0).ifZero(BcCond::Eq, ThrowBase);
  MB.newObject(Derived).throwRef();
  MB.place(ThrowBase);
  MB.newObject(Base).throwRef();
  MB.endTry(Start, CatchDerived, (int32_t)Derived);
  // Inner region registered first = matched first; then the base catch.
  MB.endTry(Start, CatchBase, (int32_t)Base);
  MB.place(CatchDerived);
  MB.pop(DataType::Object);
  MB.constI(DataType::Int32, 2).gotoLabel(Done);
  MB.place(CatchBase);
  MB.pop(DataType::Object);
  MB.constI(DataType::Int32, 1).gotoLabel(Done);
  MB.place(Done);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  ASSERT_TRUE(verifyMethod(P, M).ok()) << verifyMethod(P, M).message();
  // x==0 -> Base thrown -> base handler (1). x!=0 -> Derived thrown ->
  // derived handler (2): a Derived is also caught by Base, but the
  // Derived filter is innermost/first.
  EXPECT_EQ(runBothEngines(P, M, 0, OptLevel::Warm), 1);
  EXPECT_EQ(runBothEngines(P, M, 1, OptLevel::Warm), 2);
}

TEST(Exceptions, RuntimeTrapsRaiseBuiltins) {
  Program P;
  MethodBuilder MB(P, "oob", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  uint32_t Arr = MB.addLocal(DataType::Address);
  MB.constI(DataType::Int32, 4).newArray(DataType::Int32).store(Arr);
  MB.load(Arr).load(0).aload(DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  P.setEntryMethod(M);
  for (bool Jit : {false, true}) {
    VirtualMachine::Config Cfg;
    Cfg.EnableJit = Jit;
    Cfg.Control.Enabled = false;
    VirtualMachine VM(P, Cfg);
    if (Jit)
      VM.compileMethod(M, OptLevel::Cold);
    ExecResult Ok = VM.invoke(M, {Value::ofI(2)});
    EXPECT_FALSE(Ok.Exceptional);
    ExecResult Bad = VM.invoke(M, {Value::ofI(9)});
    ASSERT_TRUE(Bad.Exceptional);
    EXPECT_EQ(VM.heap().classOf(Bad.ExcRef),
              (int32_t)RtExceptionKind::ArrayIndexOutOfBounds);
    ExecResult Neg = VM.invoke(M, {Value::ofI(-1)});
    ASSERT_TRUE(Neg.Exceptional);
  }
}

TEST(Exceptions, DivByZeroTrapsCompiled) {
  Program P;
  MethodBuilder MB(P, "div", -1, MF_Static,
                   {DataType::Int32, DataType::Int32}, DataType::Int32);
  MB.load(0).load(1).binop(BcOp::Div, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  VirtualMachine::Config Cfg;
  Cfg.Control.Enabled = false;
  VirtualMachine VM(P, Cfg);
  VM.compileMethod(M, OptLevel::Hot);
  ExecResult R = VM.invoke(M, {Value::ofI(10), Value::ofI(0)});
  ASSERT_TRUE(R.Exceptional);
  EXPECT_EQ(VM.heap().classOf(R.ExcRef),
            (int32_t)RtExceptionKind::ArithmeticDivByZero);
}

TEST(Exceptions, StackOverflowOnRunawayRecursion) {
  Program P;
  MethodInfo Proto;
  Proto.Name = "forever";
  Proto.Flags = MF_Static;
  Proto.ArgTypes = {DataType::Int32};
  Proto.ReturnType = DataType::Int32;
  uint32_t Self = P.declarePrototype(std::move(Proto));
  MethodBuilder MB(P, Self);
  MB.load(0).call(Self).retValue(DataType::Int32);
  MB.finish();
  VirtualMachine::Config Cfg;
  Cfg.EnableJit = false;
  Cfg.MaxCallDepth = 64;
  VirtualMachine VM(P, Cfg);
  ExecResult R = VM.invoke(Self, {Value::ofI(1)});
  ASSERT_TRUE(R.Exceptional);
  EXPECT_EQ(VM.heap().classOf(R.ExcRef),
            (int32_t)RtExceptionKind::StackOverflow);
}

//===----------------------------------------------------------------------===//
// Virtual dispatch
//===----------------------------------------------------------------------===//

TEST(Dispatch, PolymorphicReceiverBothEngines) {
  Program P;
  uint32_t Base = ClassBuilder(P, "Base").finish();
  uint32_t Sub = ClassBuilder(P, "Sub", (int32_t)Base).finish();
  auto AddCalc = [&](uint32_t Cls, int64_t K) {
    MethodBuilder MB(P, "calc", (int32_t)Cls, MF_Public,
                     {DataType::Object}, DataType::Int32);
    MB.constI(DataType::Int32, K).retValue(DataType::Int32);
    return MB.finish();
  };
  uint32_t BaseCalc = AddCalc(Base, 10);
  AddCalc(Sub, 20);
  MethodBuilder MB(P, "go", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  uint32_t O = MB.addLocal(DataType::Object);
  auto UseSub = MB.newLabel();
  auto Made = MB.newLabel();
  MB.load(0).ifZero(BcCond::Ne, UseSub);
  MB.newObject(Base).store(O).gotoLabel(Made);
  MB.place(UseSub);
  MB.newObject(Sub).store(O);
  MB.place(Made);
  MB.load(O).callVirtual(BaseCalc).retValue(DataType::Int32);
  uint32_t Go = MB.finish();
  EXPECT_EQ(runBothEngines(P, Go, 0, OptLevel::Hot), 10);
  EXPECT_EQ(runBothEngines(P, Go, 1, OptLevel::Hot), 20);
}

TEST(Dispatch, NullReceiverTraps) {
  Program P;
  uint32_t Base = ClassBuilder(P, "Base").finish();
  MethodBuilder V(P, "calc", (int32_t)Base, MF_Public, {DataType::Object},
                  DataType::Int32);
  V.constI(DataType::Int32, 1).retValue(DataType::Int32);
  uint32_t Calc = V.finish();
  MethodBuilder MB(P, "go", -1, MF_Static, {}, DataType::Int32);
  uint32_t O = MB.addLocal(DataType::Object);
  MB.load(O).callVirtual(Calc).retValue(DataType::Int32);
  uint32_t Go = MB.finish();
  VirtualMachine::Config Cfg;
  Cfg.EnableJit = false;
  VirtualMachine VM(P, Cfg);
  ExecResult R = VM.invoke(Go, {});
  ASSERT_TRUE(R.Exceptional);
  EXPECT_EQ(VM.heap().classOf(R.ExcRef),
            (int32_t)RtExceptionKind::NullPointer);
}

//===----------------------------------------------------------------------===//
// SimClock
//===----------------------------------------------------------------------===//

TEST(SimClock, MonotonicPerCore) {
  SimClock::Config C;
  C.MigrationPeriod = 1e18; // never migrate
  SimClock Clock(C);
  TscSample A = Clock.readTimestamp();
  Clock.advance(1000);
  TscSample B = Clock.readTimestamp();
  EXPECT_EQ(A.CoreId, B.CoreId);
  EXPECT_GT(B.Tsc, A.Tsc);
  // Delta reflects the elapsed cycles within per-core skew.
  EXPECT_NEAR((double)(B.Tsc - A.Tsc), 1000.0, 2.0);
}

TEST(SimClock, MigrationsHappen) {
  SimClock::Config C;
  C.MigrationPeriod = 100;
  C.Seed = 3;
  SimClock Clock(C);
  for (int I = 0; I < 1000; ++I)
    Clock.advance(10);
  EXPECT_GT(Clock.migrations(), 10u);
}

TEST(SimClock, CoresDrift) {
  SimClock::Config C;
  C.MigrationPeriod = 1e18;
  SimClock A(C);
  C.Seed = 43; // different core assignment / rates
  SimClock B(C);
  A.advance(1e7);
  B.advance(1e7);
  // Same elapsed cycles, different TSC readings: drift exists.
  EXPECT_NE(A.readTimestamp().Tsc, B.readTimestamp().Tsc);
}

//===----------------------------------------------------------------------===//
// Compilation control
//===----------------------------------------------------------------------===//

TEST(Control, PromotesThroughTiers) {
  CompilationControl::Config Cfg;
  CompilationControl Control(Cfg, 8);
  unsigned Promotions = 0;
  OptLevel Last = OptLevel::Cold;
  for (int I = 0; I < 200000 && Promotions < 5; ++I) {
    auto Req = Control.onInvocationEnd(7, 10.0, LoopClass::NoLoops);
    if (Req) {
      EXPECT_FALSE(Req->IsExplorationRecompile);
      EXPECT_EQ((unsigned)Req->Level, Promotions); // strictly ascending
      Control.noteCompiled(7, Req->Level);
      Last = Req->Level;
      ++Promotions;
    }
  }
  EXPECT_EQ(Promotions, 5u);
  EXPECT_EQ(Last, OptLevel::Scorching);
}

TEST(Control, LoopyMethodsPromoteSooner) {
  CompilationControl::Config Cfg;
  auto FirstCompileAt = [&](LoopClass LC) {
    CompilationControl Control(Cfg, 8);
    for (int I = 1;; ++I) {
      if (Control.onInvocationEnd(1, 1.0, LC))
        return I;
    }
  };
  EXPECT_LT(FirstCompileAt(LoopClass::ManyIterationLoops),
            FirstCompileAt(LoopClass::MayHaveLoops));
  EXPECT_LT(FirstCompileAt(LoopClass::MayHaveLoops),
            FirstCompileAt(LoopClass::NoLoops));
}

TEST(Control, TimeSamplingCatchesLongRunners) {
  CompilationControl::Config Cfg;
  CompilationControl Control(Cfg, 8);
  // One invocation burning far more than the tier-0 cycle trigger.
  auto Req = Control.onInvocationEnd(1, Cfg.CycleTriggers[0] + 1,
                                     LoopClass::NoLoops);
  ASSERT_TRUE(Req.has_value());
  EXPECT_EQ(Req->Level, OptLevel::Cold);
}

TEST(Control, CollectModeIssuesExplorationRecompiles) {
  CompilationControl::Config Cfg;
  Cfg.CollectMode = true;
  Cfg.ExplorationTargetCycles = 1000.0;
  CompilationControl Control(Cfg, 8);
  Control.noteCompiled(1, OptLevel::Cold);
  unsigned Explorations = 0;
  for (int I = 0; I < 5000; ++I) {
    auto Req = Control.onInvocationEnd(1, 10.0, LoopClass::NoLoops);
    if (Req && Req->IsExplorationRecompile) {
      ++Explorations;
      Control.noteCompiled(1, Req->Level);
    } else if (Req) {
      Control.noteCompiled(1, Req->Level);
    }
  }
  // Threshold = clamp(1000/avg(10), 50, 50000) = 100 invocations.
  EXPECT_GT(Explorations, 20u);
}

TEST(Control, ExplorationThresholdClampedToFifty) {
  CompilationControl::Config Cfg;
  Cfg.CollectMode = true;
  Cfg.ExplorationTargetCycles = 1.0; // would want ~0 invocations
  CompilationControl Control(Cfg, 8);
  Control.noteCompiled(1, OptLevel::Cold);
  int FirstAt = 0;
  for (int I = 1; I < 200 && !FirstAt; ++I) {
    auto Req = Control.onInvocationEnd(1, 100.0, LoopClass::NoLoops);
    if (Req && Req->IsExplorationRecompile)
      FirstAt = I;
    else if (Req)
      Control.noteCompiled(1, Req->Level);
  }
  EXPECT_GE(FirstAt, 50); // the paper's lower bound
}

//===----------------------------------------------------------------------===//
// VM odds and ends
//===----------------------------------------------------------------------===//

TEST(Vm, HeapStatsAndGlobals) {
  Program P;
  uint32_t G = P.addGlobal(DataType::Int32);
  MethodBuilder MB(P, "g", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  MB.load(0).putGlobal(G, DataType::Int32);
  MB.getGlobal(G, DataType::Int32).retValue(DataType::Int32);
  uint32_t M = MB.finish();
  VirtualMachine::Config Cfg;
  Cfg.EnableJit = false;
  VirtualMachine VM(P, Cfg);
  ExecResult R = VM.invoke(M, {Value::ofI(99)});
  EXPECT_EQ(R.Ret.I, 99);
  EXPECT_EQ(VM.getGlobal(G).I, 99);
}

TEST(Vm, SynchronizedMethodsChargeMonitorCost) {
  Program P;
  MethodBuilder A(P, "plain", -1, MF_Static, {DataType::Int32},
                  DataType::Int32);
  A.load(0).retValue(DataType::Int32);
  uint32_t Plain = A.finish();
  MethodBuilder B(P, "locked", -1, MF_Static | MF_Synchronized,
                  {DataType::Int32}, DataType::Int32);
  B.load(0).retValue(DataType::Int32);
  uint32_t Locked = B.finish();
  VirtualMachine::Config Cfg;
  Cfg.EnableJit = false;
  VirtualMachine VM(P, Cfg);
  double T0 = VM.clock().cycles();
  VM.invoke(Plain, {Value::ofI(1)});
  double PlainCost = VM.clock().cycles() - T0;
  T0 = VM.clock().cycles();
  VM.invoke(Locked, {Value::ofI(1)});
  double LockedCost = VM.clock().cycles() - T0;
  EXPECT_GT(LockedCost, PlainCost);
}

TEST(Vm, MultiArrayAllocationAndAccess) {
  Program P;
  MethodBuilder MB(P, "grid", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  uint32_t G = MB.addLocal(DataType::Address);
  MB.constI(DataType::Int32, 3).constI(DataType::Int32, 4);
  MB.newMultiArray(DataType::Int32, 2).store(G);
  // g[2][3] = x; return g[2][3] + g[0][0];
  MB.load(G).constI(DataType::Int32, 2).aload(DataType::Address);
  MB.constI(DataType::Int32, 3).load(0).astore(DataType::Int32);
  MB.load(G).constI(DataType::Int32, 2).aload(DataType::Address);
  MB.constI(DataType::Int32, 3).aload(DataType::Int32);
  MB.load(G).constI(DataType::Int32, 0).aload(DataType::Address);
  MB.constI(DataType::Int32, 0).aload(DataType::Int32);
  MB.binop(BcOp::Add, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  ASSERT_TRUE(verifyMethod(P, M).ok());
  EXPECT_EQ(runBothEngines(P, M, 77, OptLevel::Warm), 77);
}

TEST(Vm, ArrayCopyAndCmpIntrinsics) {
  Program P;
  MethodBuilder MB(P, "ac", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  uint32_t A = MB.addLocal(DataType::Address);
  uint32_t B = MB.addLocal(DataType::Address);
  uint32_t I = MB.addLocal(DataType::Int32);
  MB.constI(DataType::Int32, 8).newArray(DataType::Int32).store(A);
  MB.constI(DataType::Int32, 8).newArray(DataType::Int32).store(B);
  auto Head = MB.newLabel();
  auto Exit = MB.newLabel();
  MB.constI(DataType::Int32, 0).store(I);
  MB.place(Head);
  MB.load(I).constI(DataType::Int32, 8).ifCmp(BcCond::Ge, Exit);
  MB.load(A).load(I).load(I).astore(DataType::Int32);
  MB.inc(I, 1);
  MB.gotoLabel(Head);
  MB.place(Exit);
  // arraycopy(a, 0, b, 0, 8); return arraycmp(a, b) == 0 ? 1 : 0
  MB.load(A).constI(DataType::Int32, 0);
  MB.load(B).constI(DataType::Int32, 0);
  MB.constI(DataType::Int32, 8);
  MB.arrayCopy();
  MB.load(A).load(B).arrayCmp();
  auto Eq = MB.newLabel();
  auto Done = MB.newLabel();
  MB.ifZero(BcCond::Eq, Eq);
  MB.constI(DataType::Int32, 0).gotoLabel(Done);
  MB.place(Eq);
  MB.constI(DataType::Int32, 1);
  MB.place(Done);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  ASSERT_TRUE(verifyMethod(P, M).ok()) << verifyMethod(P, M).message();
  EXPECT_EQ(runBothEngines(P, M, 0, OptLevel::Hot), 1);
}

TEST(Vm, DecimalAndLongDoubleTypesExecute) {
  Program P;
  MethodBuilder MB(P, "bcd", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  MB.load(0).conv(DataType::Int32, DataType::PackedDecimal);
  MB.constI(DataType::PackedDecimal, 100)
      .binop(BcOp::Mul, DataType::PackedDecimal);
  MB.conv(DataType::PackedDecimal, DataType::ZonedDecimal);
  MB.conv(DataType::ZonedDecimal, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  EXPECT_EQ(runBothEngines(P, M, 7, OptLevel::Hot), 700);
}
