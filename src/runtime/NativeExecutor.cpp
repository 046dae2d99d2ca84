//===- runtime/NativeExecutor.cpp - Simulated native execution ------------===//
//
// Interprets compiled NativeMethod bodies under the cycle cost model.
// Semantics match the bytecode interpreter exactly; only the cycle
// accounting differs.
//
// The static part of that accounting — each instruction's issue cost plus
// dependency stall, each block's spill penalty, the taken-branch penalty
// relative to the emitted layout, all scaled by the method's icache
// factor — was fixed by generateCode, so the executor charges the
// precomputed values, in the order it executes them. Only the charges that
// depend on run-time values (array sizes, unwinding) are computed here.
// A call's frame is one allocation: the argument vector grows into the
// locals followed by the virtual registers. An exception that escapes the
// method is unwound in one place, after the instruction that raised it.
//
//===----------------------------------------------------------------------===//

#include "runtime/ExecInternal.h"

#include "runtime/RuntimeOps.h"

using namespace jitml;

namespace {

/// Maps NOp arithmetic back to the shared BcOp evaluator.
BcOp arithBcOp(NOp Op) {
  switch (Op) {
  case NOp::Add:
    return BcOp::Add;
  case NOp::Sub:
    return BcOp::Sub;
  case NOp::Mul:
    return BcOp::Mul;
  case NOp::Div:
    return BcOp::Div;
  case NOp::Rem:
    return BcOp::Rem;
  case NOp::Shl:
    return BcOp::Shl;
  case NOp::Shr:
    return BcOp::Shr;
  case NOp::Or:
    return BcOp::Or;
  case NOp::And:
    return BcOp::And;
  case NOp::Xor:
    return BcOp::Xor;
  default:
    assert(false && "not an arithmetic native op");
    return BcOp::Add;
  }
}

} // namespace

ExecResult jitml::executeNative(VirtualMachine &VM, const NativeMethod &Code,
                                std::vector<Value> Args, unsigned Depth) {
  const Program &P = VM.program();
  const CostModel &CM = VM.costModel();
  Heap &H = VM.heap();
  double ICache = Code.ICacheFactor;

  assert(Args.size() <= Code.NumLocals && "more arguments than locals");
  std::vector<Value> Frame = std::move(Args);
  Frame.resize(Code.NumLocals + std::max<uint32_t>(Code.NumVRegs, 1));
  Value *Locals = Frame.data();
  Value *Regs = Locals + Code.NumLocals;
  Value ExcValue; ///< the in-flight exception for LdExc

  int32_t Block = (int32_t)Code.Entry;

  bool Transferred = false; ///< exception dispatch changed Block
  bool Escaping = false;    ///< EscapingExc leaves the method
  uint32_t EscapingExc = 0;

  // Transfers control to the first matching handler of the current block,
  // or marks the exception as escaping, to be unwound once the instruction
  // ends.
  auto Dispatch = [&](uint32_t ExcRef) {
    for (const auto &[Handler, ClassIdx] : Code.Blocks[Block].Handlers) {
      if (ClassIdx >= 0) {
        int32_t Cls = H.classOf(ExcRef);
        if (Cls < 0 || !P.isSubclassOf(Cls, ClassIdx))
          continue;
      }
      ExcValue = Value::ofR(ExcRef);
      Block = Handler;
      Transferred = true;
      return;
    }
    Escaping = true;
    EscapingExc = ExcRef;
  };
  auto Trap = [&](RtExceptionKind Kind) {
    uint32_t Exc = H.allocException(Kind);
    VM.noteException();
    Dispatch(Exc);
  };

  while (true) {
    const NativeBlock &B = Code.Blocks[(uint32_t)Block];
    VM.charge(B.EntryCharge);
    Transferred = false;

    for (size_t II = 0; II < B.Insts.size() && !Transferred; ++II) {
      const NativeInst &I = B.Insts[II];
      VM.charge(B.InstCharge[II]);

      switch (I.Op) {
      case NOp::Nop:
        break;
      case NOp::ConstI:
        Regs[I.Dst] = Value::ofI(I.Imm);
        break;
      case NOp::ConstF:
        Regs[I.Dst] = Value::ofF(I.FImm);
        break;
      case NOp::Move:
        Regs[I.Dst] = Regs[I.A];
        break;
      case NOp::LdLoc:
        Regs[I.Dst] = Locals[(uint32_t)I.Aux];
        break;
      case NOp::StLoc:
        Locals[(uint32_t)I.Aux] = Regs[I.A];
        break;
      case NOp::LdGlob:
        Regs[I.Dst] = VM.getGlobal((uint32_t)I.Aux);
        break;
      case NOp::StGlob:
        VM.setGlobal((uint32_t)I.Aux, Regs[I.A]);
        break;
      case NOp::LdFld: {
        uint32_t Obj = Regs[I.A].R;
        if (H.isNull(Obj)) {
          Trap(RtExceptionKind::NullPointer);
          break;
        }
        Regs[I.Dst] = H.getSlot(Obj, (uint32_t)I.Aux);
        break;
      }
      case NOp::StFld: {
        uint32_t Obj = Regs[I.A].R;
        if (H.isNull(Obj)) {
          Trap(RtExceptionKind::NullPointer);
          break;
        }
        H.setSlot(Obj, (uint32_t)I.Aux, Regs[I.B]);
        break;
      }
      case NOp::LdElem: {
        uint32_t Arr = Regs[I.A].R;
        int64_t Idx = Regs[I.B].I;
        if (H.isNull(Arr)) {
          Trap(RtExceptionKind::NullPointer);
          break;
        }
        if (Idx < 0 || (uint64_t)Idx >= H.arrayLength(Arr)) {
          Trap(RtExceptionKind::ArrayIndexOutOfBounds);
          break;
        }
        Regs[I.Dst] = H.getSlot(Arr, (uint32_t)Idx);
        break;
      }
      case NOp::StElem: {
        uint32_t Arr = Regs[I.A].R;
        int64_t Idx = Regs[I.B].I;
        if (H.isNull(Arr)) {
          Trap(RtExceptionKind::NullPointer);
          break;
        }
        if (Idx < 0 || (uint64_t)Idx >= H.arrayLength(Arr)) {
          Trap(RtExceptionKind::ArrayIndexOutOfBounds);
          break;
        }
        H.setSlot(Arr, (uint32_t)Idx, Regs[I.Args[0]]);
        break;
      }
      case NOp::ArrLen: {
        uint32_t Arr = Regs[I.A].R;
        if (H.isNull(Arr)) {
          Trap(RtExceptionKind::NullPointer);
          break;
        }
        Regs[I.Dst] = Value::ofI(H.arrayLength(Arr));
        break;
      }
      case NOp::LdExc:
        Regs[I.Dst] = ExcValue;
        break;
      case NOp::Add:
      case NOp::Sub:
      case NOp::Mul:
      case NOp::Div:
      case NOp::Rem:
      case NOp::Shl:
      case NOp::Shr:
      case NOp::Or:
      case NOp::And:
      case NOp::Xor: {
        bool DivByZero = false;
        Value R =
            evalArith(arithBcOp(I.Op), I.T, Regs[I.A], Regs[I.B], DivByZero);
        if (DivByZero) {
          Trap(RtExceptionKind::ArithmeticDivByZero);
          break;
        }
        Regs[I.Dst] = R;
        break;
      }
      case NOp::Neg:
        if (isFloatType(I.T))
          Regs[I.Dst] = Value::ofF(-Regs[I.A].F);
        else
          Regs[I.Dst] = Value::ofI(normalizeRtInt(I.T, -Regs[I.A].I));
        break;
      case NOp::Cmp3:
        Regs[I.Dst] = Value::ofI(compare3(I.T, Regs[I.A], Regs[I.B]));
        break;
      case NOp::CmpCond:
        Regs[I.Dst] = Value::ofI(
            testCond((BcCond)I.Aux, compare3(I.T, Regs[I.A], Regs[I.B]))
                ? 1
                : 0);
        break;
      case NOp::Conv:
        Regs[I.Dst] = convertValue((DataType)I.Aux, I.T, Regs[I.A]);
        break;
      case NOp::Br:
        // Handled below as the terminator.
        break;
      case NOp::Jmp:
        break;
      case NOp::CallM: {
        uint32_t Target = (uint32_t)I.Aux;
        std::vector<Value> CallArgs(I.Args.size());
        for (size_t K = 0; K < I.Args.size(); ++K)
          CallArgs[K] = Regs[I.Args[K]];
        if (I.Imm == 1) { // virtual dispatch
          if (H.isNull(CallArgs[0].R)) {
            Trap(RtExceptionKind::NullPointer);
            break;
          }
          int32_t DynClass = H.classOf(CallArgs[0].R);
          assert(DynClass >= 0 && "virtual call on non-object");
          Target = P.resolveVirtual(Target, (uint32_t)DynClass);
        }
        ExecResult R = VM.invoke(Target, std::move(CallArgs), Depth + 1);
        if (R.Exceptional)
          Dispatch(R.ExcRef);
        else if (I.Dst != NoReg)
          Regs[I.Dst] = R.Ret;
        break;
      }
      case NOp::Ret:
        return ExecResult::ok(I.A == NoReg ? Value() : Regs[I.A]);
      case NOp::ThrowR: {
        uint32_t Exc = Regs[I.A].R;
        if (H.isNull(Exc)) {
          Trap(RtExceptionKind::NullPointer);
          break;
        }
        VM.noteException();
        Dispatch(Exc);
        break;
      }
      case NOp::NewObj:
        Regs[I.Dst] = Value::ofR(H.allocObject(P, (uint32_t)I.Aux));
        break;
      case NOp::NewArr: {
        int64_t Len = Regs[I.A].I;
        if (Len < 0) {
          Trap(RtExceptionKind::NegativeArraySize);
          break;
        }
        VM.charge(CM.AllocArrayPerElem * (double)Len * ICache);
        Regs[I.Dst] = Value::ofR(H.allocArray(I.T, (uint32_t)Len));
        break;
      }
      case NOp::NewMulti: {
        unsigned Dims = (unsigned)I.Aux;
        std::vector<int64_t> Lens(Dims);
        bool Bad = false;
        for (unsigned K = 0; K < Dims; ++K) {
          Lens[K] = Regs[I.Args[K]].I;
          if (Lens[K] < 0)
            Bad = true;
        }
        if (Bad) {
          Trap(RtExceptionKind::NegativeArraySize);
          break;
        }
        auto Build = [&](auto &&Self, unsigned Dim) -> uint32_t {
          uint32_t Len = (uint32_t)Lens[Dim];
          DataType ET = Dim + 1 == Dims ? I.T : DataType::Address;
          VM.charge(CM.AllocArrayPerElem * (double)Len * ICache);
          uint32_t Arr = H.allocArray(ET, Len);
          if (Dim + 1 < Dims)
            for (uint32_t K = 0; K < Len; ++K)
              H.setSlot(Arr, K, Value::ofR(Self(Self, Dim + 1)));
          return Arr;
        };
        Regs[I.Dst] = Value::ofR(Build(Build, 0));
        break;
      }
      case NOp::InstOf: {
        uint32_t Obj = Regs[I.A].R;
        bool Is = false;
        if (!H.isNull(Obj)) {
          int32_t Cls = H.classOf(Obj);
          Is = Cls >= 0 && P.isSubclassOf(Cls, I.Aux);
        }
        Regs[I.Dst] = Value::ofI(Is ? 1 : 0);
        break;
      }
      case NOp::ChkCast: {
        uint32_t Obj = Regs[I.A].R;
        if (!H.isNull(Obj)) {
          int32_t Cls = H.classOf(Obj);
          if (Cls < 0 || !P.isSubclassOf(Cls, I.Aux))
            Trap(RtExceptionKind::ClassCast);
        }
        break;
      }
      case NOp::MonEnter:
      case NOp::MonExit:
      case NOp::NullChk:
        if (H.isNull(Regs[I.A].R))
          Trap(RtExceptionKind::NullPointer);
        break;
      case NOp::BndChk: {
        uint32_t Arr = Regs[I.A].R;
        // A fused check covers the null test the guard-merging pass
        // removed.
        if (H.isNull(Arr)) {
          Trap(RtExceptionKind::NullPointer);
          break;
        }
        int64_t Idx = Regs[I.B].I;
        if (Idx < 0 || (uint64_t)Idx >= H.arrayLength(Arr))
          Trap(RtExceptionKind::ArrayIndexOutOfBounds);
        break;
      }
      case NOp::DivChk:
        if (Regs[I.A].I == 0)
          Trap(RtExceptionKind::ArithmeticDivByZero);
        break;
      case NOp::ArrCopy: {
        uint32_t Src = Regs[I.Args[0]].R;
        int64_t SrcPos = Regs[I.Args[1]].I;
        uint32_t Dst = Regs[I.Args[2]].R;
        int64_t DstPos = Regs[I.Args[3]].I;
        int64_t Len = Regs[I.Args[4]].I;
        if (H.isNull(Src) || H.isNull(Dst)) {
          Trap(RtExceptionKind::NullPointer);
          break;
        }
        if (Len < 0 || SrcPos < 0 || DstPos < 0 ||
            (uint64_t)(SrcPos + Len) > H.arrayLength(Src) ||
            (uint64_t)(DstPos + Len) > H.arrayLength(Dst)) {
          Trap(RtExceptionKind::ArrayIndexOutOfBounds);
          break;
        }
        VM.charge(CM.ArrayCopyPerElem * (double)Len * ICache);
        for (int64_t K = 0; K < Len; ++K)
          H.setSlot(Dst, (uint32_t)(DstPos + K),
                    H.getSlot(Src, (uint32_t)(SrcPos + K)));
        break;
      }
      case NOp::ArrCmp: {
        uint32_t A = Regs[I.A].R, BRef = Regs[I.B].R;
        if (H.isNull(A) || H.isNull(BRef)) {
          Trap(RtExceptionKind::NullPointer);
          break;
        }
        uint32_t LenA = H.arrayLength(A), LenB = H.arrayLength(BRef);
        uint32_t N = std::min(LenA, LenB);
        VM.charge(CM.ArrayCmpPerElem * (double)N * ICache);
        int64_t Cmp = 0;
        for (uint32_t K = 0; K < N && Cmp == 0; ++K) {
          int64_t X = H.getSlot(A, K).I, Y = H.getSlot(BRef, K).I;
          Cmp = X < Y ? -1 : (X > Y ? 1 : 0);
        }
        if (Cmp == 0 && LenA != LenB)
          Cmp = LenA < LenB ? -1 : 1;
        Regs[I.Dst] = Value::ofI(Cmp);
        break;
      }
      }
      if (Escaping) {
        VM.charge(CM.UnwindPerFrame * ICache);
        return ExecResult::exception(EscapingExc);
      }
    }
    if (Transferred)
      continue; // exception dispatch already selected the next block

    // Terminator: decide the next block and charge layout-sensitive cost.
    const NativeInst &Term = B.Insts.back();
    int32_t Next;
    if (Term.Op == NOp::Br) {
      bool Taken = testCond((BcCond)Term.Aux,
                            compare3(Term.T, Regs[Term.A], Regs[Term.B]));
      Next = Taken ? B.SuccTaken : B.SuccFall;
    } else if (Term.Op == NOp::Jmp) {
      Next = B.SuccTaken;
    } else {
      assert(false && "block fell through without a terminator");
      return ExecResult::ok(Value());
    }
    assert(Next >= 0 && "terminator without a successor");
    // Transfers that do not fall through to the next block in layout
    // order cost extra (branch predictor / fetch redirect).
    if (Code.Blocks[(uint32_t)Next].LayoutPos != B.LayoutPos + 1)
      VM.charge(Code.TakenCharge);
    Block = Next;
  }
}
