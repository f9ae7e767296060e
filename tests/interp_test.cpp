//===- tests/interp_test.cpp - Machine/Java semantics tests ----------------------===//

#include "interp/Interpreter.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/Semantics.h"
#include "opt/LocalOpts.h"
#include "pm/InstrumentedPipeline.h"
#include "sxe/Pipeline.h"
#include "target/TargetInfo.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>

using namespace sxe;

namespace {

/// Runs a freshly built single-function module and returns the result.
ExecResult runModule(Module &M, InterpOptions Options = {},
                     const std::vector<uint64_t> &Args = {}) {
  Interpreter Interp(M, Options);
  return Interp.run("main", Args);
}

TEST(InterpTest, W32AddLeavesUpperBitsUnextended) {
  // 0x7fffffff + 1 on canonical inputs: the 64-bit register holds 2^31,
  // NOT the sign-extended int value.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.constI32(0x7FFFFFFF);
  Reg One = B.constI32(1);
  Reg Sum32 = B.add32(A, One, "sum");
  Reg Wide = F->newReg(Type::I64, "wide");
  B.copyTo(Wide, Sum32); // Exposes the raw register.
  B.ret(Wide);

  ExecResult R = runModule(*M);
  EXPECT_EQ(R.ReturnValue, uint64_t(1) << 31); // Upper bits NOT sign bits.
}

TEST(InterpTest, Sext32CountsAndCanonicalizes) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.constI32(0x7FFFFFFF);
  Reg One = B.constI32(1);
  Reg Sum32 = B.add32(A, One, "sum");
  B.sextTo(Sum32, 32, Sum32);
  Reg Wide = F->newReg(Type::I64, "wide");
  B.copyTo(Wide, Sum32);
  B.ret(Wide);

  ExecResult R = runModule(*M);
  EXPECT_EQ(R.ReturnValue,
            static_cast<uint64_t>(static_cast<int64_t>(INT32_MIN)));
  EXPECT_EQ(R.ExecutedSext32, 1u);
  EXPECT_EQ(R.totalExecutedSext(), 1u);
}

TEST(InterpTest, JavaModeCanonicalizesAutomatically) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.constI32(0x7FFFFFFF);
  Reg One = B.constI32(1);
  Reg Sum32 = B.add32(A, One, "sum");
  Reg Wide = F->newReg(Type::I64, "wide");
  B.copyTo(Wide, Sum32);
  B.ret(Wide);

  InterpOptions Java;
  Java.Semantics = ExecSemantics::Java;
  ExecResult R = runModule(*M, Java);
  EXPECT_EQ(R.ReturnValue,
            static_cast<uint64_t>(static_cast<int64_t>(INT32_MIN)));
}

TEST(InterpTest, W32DivisionFollowsJavaSemantics) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Min = B.constI32(INT32_MIN);
  Reg MinusOne = B.constI32(-1);
  Reg Q = B.div32(Min, MinusOne, "q"); // Java: wraps to INT32_MIN.
  Reg Wide = F->newReg(Type::I64, "wide");
  B.copyTo(Wide, Q);
  B.ret(Wide);

  ExecResult R = runModule(*M);
  EXPECT_EQ(static_cast<int64_t>(R.ReturnValue), INT32_MIN);
}

TEST(InterpTest, DivisionByZeroTraps) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I32);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.constI32(7);
  Reg Zero = B.constI32(0);
  Reg Q = B.div32(A, Zero);
  B.ret(Q);
  EXPECT_EQ(runModule(*M).Trap, TrapKind::DivByZero);
}

TEST(InterpTest, BoundsCheckUsesLower32Bits) {
  // Index register = 2^32 + 1: lower half 1 is in range, and the full
  // value disagrees -> the wild-address detector fires.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I32);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Len = B.constI32(8);
  Reg Arr = B.newArray(Type::I32, Len, "arr");
  Reg Idx = B.constI64((int64_t(1) << 32) + 1);
  Reg V = B.arrayLoad(Type::I32, Arr, Idx, "v");
  B.ret(V);
  EXPECT_EQ(runModule(*M).Trap, TrapKind::WildAddress);
}

TEST(InterpTest, OutOfBoundsTrapsBeforeWildCheck) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I32);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Len = B.constI32(8);
  Reg Arr = B.newArray(Type::I32, Len, "arr");
  Reg Idx = B.constI32(-1); // Lower 32 = 0xffffffff >= 8 unsigned.
  Reg V = B.arrayLoad(Type::I32, Arr, Idx, "v");
  B.ret(V);
  EXPECT_EQ(runModule(*M).Trap, TrapKind::BoundsCheck);
}

TEST(InterpTest, NegativeArraySizeTraps) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I32);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Len = B.constI32(-5);
  Reg Arr = B.newArray(Type::I32, Len, "arr");
  Reg Zero = B.constI32(0);
  Reg V = B.arrayLoad(Type::I32, Arr, Zero);
  B.ret(V);
  EXPECT_EQ(runModule(*M).Trap, TrapKind::NegativeArraySize);
}

TEST(InterpTest, AllocationLimitEnforced) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I32);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Len = B.constI32(1000);
  Reg Arr = B.newArray(Type::I32, Len, "arr");
  Reg Zero = B.constI32(0);
  Reg V = B.arrayLoad(Type::I32, Arr, Zero);
  B.ret(V);

  InterpOptions Options;
  Options.MaxArrayLen = 999; // Configured resource limit (Theorem 4).
  EXPECT_EQ(runModule(*M, Options).Trap, TrapKind::AllocationLimit);
}

TEST(InterpTest, ByteLoadsZeroExtendOnIA64) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Len = B.constI32(1);
  Reg Arr = B.newArray(Type::I8, Len, "arr");
  Reg Zero = B.constI32(0);
  Reg Neg = B.constI32(-1); // Stored as 0xff.
  B.arrayStore(Type::I8, Arr, Zero, Neg);
  Reg Raw = B.arrayLoad(Type::I8, Arr, Zero, "raw");
  Reg Wide = F->newReg(Type::I64, "wide");
  B.copyTo(Wide, Raw);
  B.ret(Wide);
  EXPECT_EQ(runModule(*M).ReturnValue, 0xFFu); // Zero-extended raw byte.
  EXPECT_EQ(runModule(*M).ExecutedSext8, 0u);
}

TEST(InterpTest, ShortLoadsSignExtendOnPPC64) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Len = B.constI32(1);
  Reg Arr = B.newArray(Type::I16, Len, "arr");
  Reg Zero = B.constI32(0);
  Reg Neg = B.constI32(-2);
  B.arrayStore(Type::I16, Arr, Zero, Neg);
  Reg Raw = B.arrayLoad(Type::I16, Arr, Zero, "raw");
  Reg Wide = F->newReg(Type::I64, "wide");
  B.copyTo(Wide, Raw);
  B.ret(Wide);

  ExecResult IA64 = runModule(*M);
  EXPECT_EQ(IA64.ReturnValue, 0xFFFEu); // ld2: zero-extended.

  InterpOptions PPC;
  PPC.Target = &TargetInfo::ppc64();
  ExecResult PPC64 = runModule(*M, PPC);
  EXPECT_EQ(static_cast<int64_t>(PPC64.ReturnValue), -2); // lha.
}

TEST(InterpTest, D2ISaturates) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Big = B.constF64(1e18);
  Reg Q = B.d2i(Big, "q");
  Reg Wide = F->newReg(Type::I64, "wide");
  B.copyTo(Wide, Q);
  B.ret(Wide);
  EXPECT_EQ(static_cast<int64_t>(runModule(*M).ReturnValue), INT32_MAX);
}

TEST(InterpTest, ShrW32IgnoresGarbageUpperBits) {
  // x >>> 0 of a register with garbage upper bits extracts the low half.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Garbage = B.constI64((int64_t(0xABCD) << 32) | 0x123);
  Reg Zero = B.constI32(0);
  Reg R = B.shr32(Garbage, Zero, "r");
  Reg Wide = F->newReg(Type::I64, "wide");
  B.copyTo(Wide, R);
  B.ret(Wide);
  EXPECT_EQ(runModule(*M).ReturnValue, 0x123u);
}

TEST(InterpTest, CallsReturnThroughRegisters) {
  auto M = std::make_unique<Module>("m");
  Function *Callee = M->createFunction("twice", Type::I32);
  {
    Reg P = Callee->addParam(Type::I32, "p");
    IRBuilder B(Callee);
    B.startBlock("entry");
    Reg Two = B.constI32(2);
    Reg R = B.mul32(P, Two);
    B.sextTo(R, 32, R);
    B.ret(R);
  }
  Function *Main = M->createFunction("main", Type::I32);
  {
    IRBuilder B(Main);
    B.startBlock("entry");
    Reg C = B.constI32(21);
    Reg R = B.call(Callee, {C});
    B.ret(R);
  }
  EXPECT_EQ(runModule(*M).ReturnValue, 42u);
}

TEST(InterpTest, StackOverflowTraps) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I32);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Result = F->newReg(Type::I32, "r");
  B.callTo(Result, F, {}); // Infinite recursion.
  B.ret(Result);

  ExecResult R = runModule(*M);
  EXPECT_EQ(R.Trap, TrapKind::StackOverflow);
  // Every frame but the one that overflowed ran its call instruction.
  EXPECT_EQ(R.ExecutedInstructions, MaxCallDepth);
}

TEST(InterpTest, StepLimitTraps) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I32);
  IRBuilder B(F);
  BasicBlock *Entry = B.startBlock("entry");
  B.jmp(Entry); // Infinite loop.

  InterpOptions Options;
  Options.MaxSteps = 1000;
  EXPECT_EQ(runModule(*M, Options).Trap, TrapKind::StepLimit);
}

/// Runs \p Pristine under the Java oracle, then every pipeline variant on
/// every target under machine semantics, asserting the trap kind and (for
/// clean runs) the return value match the oracle exactly. Arithmetic edge
/// cases must trap or wrap identically no matter what was optimized away.
void expectTrapParity(const Module &Pristine, TrapKind ExpectedTrap,
                      uint64_t ExpectedValue) {
  InterpOptions Java;
  Java.Semantics = ExecSemantics::Java;
  ExecResult Oracle = Interpreter(Pristine, Java).run("main");
  EXPECT_EQ(Oracle.Trap, ExpectedTrap);
  if (ExpectedTrap == TrapKind::None) {
    EXPECT_EQ(Oracle.ReturnValue, ExpectedValue);
  }

  for (const TargetInfo *Target :
       {&TargetInfo::ia64(), &TargetInfo::ppc64(), &TargetInfo::generic64()}) {
    for (Variant V : AllVariants) {
      auto Clone = cloneModule(Pristine);
      runInstrumentedPipeline(*Clone, PipelineConfig::forVariant(V, *Target));
      InterpOptions Machine;
      Machine.Target = Target;
      ExecResult Got = Interpreter(*Clone, Machine).run("main");
      EXPECT_EQ(Got.Trap, Oracle.Trap)
          << variantName(V) << ", " << Target->name();
      if (Oracle.Trap == TrapKind::None) {
        EXPECT_EQ(Got.ReturnValue, Oracle.ReturnValue)
            << variantName(V) << ", " << Target->name();
      }
    }
  }
}

/// Builds main with an array of \p ElemTy (I32 or I64) holding \p Values;
/// \p Body gets a loader that fetches element I as a canonical value of
/// that type. Values pass through memory so no pass can fold the edge case
/// away at compile time.
std::unique_ptr<Module>
buildArrayProbe(const std::vector<int64_t> &Values,
                const std::function<void(IRBuilder &, Function *,
                                         std::function<Reg(unsigned)>)> &Body,
                Type ElemTy = Type::I32) {
  auto M = std::make_unique<Module>("trap_probe");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Len = B.constI32(static_cast<int32_t>(Values.size()));
  Reg Arr = B.newArray(ElemTy, Len, "arr");
  for (size_t Index = 0; Index < Values.size(); ++Index)
    B.arrayStore(ElemTy, Arr, B.constI32(static_cast<int32_t>(Index)),
                 ElemTy == Type::I64
                     ? B.constI64(Values[Index])
                     : B.constI32(static_cast<int32_t>(Values[Index])));
  auto Load = [&B, Arr, ElemTy](unsigned Index) {
    Reg Raw = B.arrayLoad(ElemTy, Arr, B.constI32(Index), "raw");
    return ElemTy == Type::I64 ? Raw : B.sext(32, Raw, "canon");
  };
  Body(B, F, Load);
  return M;
}

TEST(InterpTrapParity, IntMinDivMinusOneW32WrapsEverywhere) {
  auto M = buildArrayProbe({INT32_MIN, -1}, [](IRBuilder &B, Function *F,
                                               std::function<Reg(unsigned)> L) {
    Reg Q = B.div32(L(0), L(1), "q");
    Reg Canon = B.sext(32, Q, "canonq");
    Reg Wide = F->newReg(Type::I64, "wide");
    B.copyTo(Wide, Canon);
    B.ret(Wide);
  });
  // Java semantics: Integer.MIN_VALUE / -1 wraps to Integer.MIN_VALUE.
  expectTrapParity(*M, TrapKind::None,
                   static_cast<uint64_t>(static_cast<int64_t>(INT32_MIN)));
}

TEST(InterpTrapParity, IntMinRemMinusOneIsZeroEverywhere) {
  auto M = buildArrayProbe({INT32_MIN, -1}, [](IRBuilder &B, Function *F,
                                               std::function<Reg(unsigned)> L) {
    Reg R = B.rem32(L(0), L(1), "r");
    Reg Canon = B.sext(32, R, "canonr");
    Reg Wide = F->newReg(Type::I64, "wide");
    B.copyTo(Wide, Canon);
    B.ret(Wide);
  });
  expectTrapParity(*M, TrapKind::None, 0);
}

TEST(InterpTrapParity, DivByZeroTrapsEverywhere) {
  auto M = buildArrayProbe({7, 0}, [](IRBuilder &B, Function *F,
                                      std::function<Reg(unsigned)> L) {
    Reg Q = B.div32(L(0), L(1), "q");
    Reg Wide = F->newReg(Type::I64, "wide");
    B.copyTo(Wide, B.sext(32, Q));
    B.ret(Wide);
  });
  expectTrapParity(*M, TrapKind::DivByZero, 0);
}

TEST(InterpTrapParity, LongMinDivMinusOneW64WrapsEverywhere) {
  auto M = buildArrayProbe(
      {INT64_MIN, -1},
      [](IRBuilder &B, Function *, std::function<Reg(unsigned)> L) {
        B.ret(B.binop(Opcode::Div, Width::W64, L(0), L(1), "q"));
      },
      Type::I64);
  expectTrapParity(*M, TrapKind::None, static_cast<uint64_t>(INT64_MIN));
}

TEST(InterpTrapParity, ShiftCountsAtOrAboveWidthMaskEverywhere) {
  // Java masks 32-bit shift counts to their low 5 bits: x << 32 == x,
  // x << 33 == x << 1, x >> 35 == x >> 3. The counts travel through
  // memory so no pass can canonicalize them away.
  auto M = buildArrayProbe(
      {1, 32, 33, INT32_MIN, 35},
      [](IRBuilder &B, Function *F, std::function<Reg(unsigned)> L) {
        Reg ById32 = B.shl32(L(0), L(1), "by32");   // 1 << 32 == 1
        Reg ByOne = B.shl32(L(0), L(2), "by33");    // 1 << 33 == 2
        Reg SarHigh = B.sar32(L(3), L(4), "sar35"); // MIN >> 35 == MIN >> 3
        Reg Acc = F->newReg(Type::I64, "acc");
        B.copyTo(Acc, B.sext(32, ById32));
        Reg W1 = F->newReg(Type::I64, "w1");
        B.copyTo(W1, B.sext(32, ByOne));
        B.binopTo(Acc, Opcode::Add, Width::W64, Acc, W1);
        Reg W2 = F->newReg(Type::I64, "w2");
        B.copyTo(W2, B.sext(32, SarHigh));
        B.binopTo(Acc, Opcode::Add, Width::W64, Acc, W2);
        B.ret(Acc);
      });
  int64_t Expected = 1 + 2 + (static_cast<int64_t>(INT32_MIN) >> 3);
  expectTrapParity(*M, TrapKind::None, static_cast<uint64_t>(Expected));
}

TEST(InterpTest, W32DivisionOfUnextendedRegistersIsDefined) {
  // On the full-register targets %z holds 2^63: the W32 adds and multiply
  // leave their upper halves unextended, so the divide reads
  // INT64_MIN / -1. It wraps as the W64 form does instead of faulting.
  for (const TargetInfo *Target :
       {&TargetInfo::ia64(), &TargetInfo::ppc64(), &TargetInfo::generic64()}) {
    auto M = std::make_unique<Module>("m");
    Function *F = M->createFunction("main", Type::I64);
    IRBuilder B(F);
    B.startBlock("entry");
    Reg Max = B.constI32(INT32_MAX);
    Reg One = B.constI32(1);
    Reg X = B.add32(Max, One, "x");
    Reg Y = B.mul32(X, X, "y");
    Reg Z = B.add32(Y, Y, "z");
    Reg MinusOne = B.constI32(-1);
    Reg Q = B.div32(Z, MinusOne, "q");
    Reg Wide = F->newReg(Type::I64, "wide");
    B.copyTo(Wide, Q);
    B.ret(Wide);

    InterpOptions Machine;
    Machine.Target = Target;
    ExecResult First = runModule(*M, Machine);
    ExecResult Second = runModule(*M, Machine);
    ASSERT_EQ(First.Trap, TrapKind::None) << Target->name();
    ASSERT_EQ(Second.Trap, TrapKind::None) << Target->name();
    EXPECT_EQ(First.ReturnValue, Second.ReturnValue) << Target->name();
    // INT64_MIN's low half is 0, and the W32 quotient sign-extends it.
    EXPECT_EQ(First.ReturnValue, 0u) << Target->name();
  }
}

/// One edge input of a pure integer operation. The operands are canonical
/// values of the operand registers: i32 for a W32 operation, i64 for a W64
/// operation or a conversion (which ignores W and B).
struct IntegerEdge {
  Opcode Op;
  Width W;
  int64_t A;
  int64_t B;
  CmpPred Pred = CmpPred::EQ;
};

const IntegerEdge IntegerEdges[] = {
    // MIN / -1 at both widths, and division by zero.
    {Opcode::Div, Width::W32, INT32_MIN, -1},
    {Opcode::Rem, Width::W32, INT32_MIN, -1},
    {Opcode::Div, Width::W64, INT64_MIN, -1},
    {Opcode::Rem, Width::W64, INT64_MIN, -1},
    {Opcode::Div, Width::W32, 7, 0},
    {Opcode::Rem, Width::W64, 7, 0},
    // Shift counts at or above the width, and negative counts.
    {Opcode::Shl, Width::W32, 1, 32},
    {Opcode::Shl, Width::W32, 1, 33},
    {Opcode::Shl, Width::W32, 1, -1},
    {Opcode::Shr, Width::W32, INT32_MIN, 32},
    {Opcode::Shr, Width::W32, -1, 63},
    {Opcode::Sar, Width::W32, INT32_MIN, 35},
    {Opcode::Shl, Width::W64, 1, 64},
    {Opcode::Shl, Width::W64, 1, 127},
    {Opcode::Shr, Width::W64, -1, 64},
    {Opcode::Shr, Width::W64, INT64_MIN, 65},
    {Opcode::Sar, Width::W64, INT64_MIN, 127},
    // Sign and zero extensions and truncation of boundary values.
    {Opcode::Sext8, Width::W64, 0x7F, 0},
    {Opcode::Sext8, Width::W64, 0x80, 0},
    {Opcode::Sext8, Width::W64, 0x1FF, 0},
    {Opcode::Sext16, Width::W64, 0x7FFF, 0},
    {Opcode::Sext16, Width::W64, 0x8000, 0},
    {Opcode::Sext16, Width::W64, -0x8001, 0},
    {Opcode::Sext32, Width::W64, INT32_MAX, 0},
    {Opcode::Sext32, Width::W64, 0x80000000, 0},
    {Opcode::Sext32, Width::W64, INT64_MIN + INT32_MAX, 0},
    {Opcode::Zext8, Width::W64, -1, 0},
    {Opcode::Zext8, Width::W64, 0x80, 0},
    {Opcode::Zext16, Width::W64, -1, 0},
    {Opcode::Zext16, Width::W64, INT16_MIN, 0},
    {Opcode::Zext32, Width::W64, -1, 0},
    {Opcode::Zext32, Width::W64, INT32_MIN, 0},
    {Opcode::Trunc32, Width::W64, INT64_MIN, 0},
    {Opcode::Trunc32, Width::W64, 0x180000000, 0},
    {Opcode::Trunc32, Width::W64, -1, 0},
    // W32 compares read the low halves, signed or unsigned.
    {Opcode::Cmp, Width::W32, INT32_MIN, INT32_MAX, CmpPred::SLT},
    {Opcode::Cmp, Width::W32, INT32_MIN, INT32_MAX, CmpPred::UGT},
    {Opcode::Cmp, Width::W64, INT64_MIN, 1, CmpPred::ULT},
};

/// Emits \p Edge's operation on \p A and \p Bv; returns its destination.
Reg emitEdge(IRBuilder &B, const IntegerEdge &Edge, Reg A, Reg Bv) {
  switch (Edge.Op) {
  case Opcode::Sext8:
    return B.sext(8, A);
  case Opcode::Sext16:
    return B.sext(16, A);
  case Opcode::Sext32:
    return B.sext(32, A);
  case Opcode::Zext8:
    return B.zext8(A);
  case Opcode::Zext16:
    return B.zext16(A);
  case Opcode::Zext32:
    return B.zext32(A);
  case Opcode::Trunc32:
    return B.trunc32(A);
  case Opcode::Cmp:
    return B.cmp(Edge.Pred, Edge.W, A, Bv);
  default:
    return B.binop(Edge.Op, Edge.W, A, Bv);
  }
}

TEST(InterpTrapParity, IntegerEdgesAgreeWithEvaluatorAndFolder) {
  unsigned Folds = 0;
  for (const IntegerEdge &Edge : IntegerEdges) {
    SCOPED_TRACE(std::string(opcodeMnemonic(Edge.Op)) +
                 (Edge.W == Width::W32 ? ".w32 " : ".w64 ") +
                 std::to_string(Edge.A) + ", " + std::to_string(Edge.B));
    const uint64_t A = static_cast<uint64_t>(Edge.A);
    const uint64_t B = static_cast<uint64_t>(Edge.B);
    Evaluation Want = evaluate(Edge.Op, Edge.W, Edge.Pred, A, B);
    // On canonical operands the two divide forms agree.
    Evaluation Low =
        evaluate(Edge.Op, Edge.W, Edge.Pred, A, B, DivOperands::Low32);
    EXPECT_EQ(Low.DivByZero, Want.DivByZero);
    EXPECT_EQ(Low.Value, Want.Value);
    TrapKind WantTrap = Want.DivByZero ? TrapKind::DivByZero : TrapKind::None;
    bool W32Op = Edge.W == Width::W32 && !isConversionOpcode(Edge.Op);
    Type OperandTy = W32Op ? Type::I32 : Type::I64;

    // The Java oracle and every pipeline on every full-register target,
    // with the operands passed through memory.
    Type DestTy = Type::Void;
    auto Probe = buildArrayProbe(
        {Edge.A, Edge.B},
        [&](IRBuilder &IRB, Function *F, std::function<Reg(unsigned)> L) {
          Reg R = emitEdge(IRB, Edge, L(0), L(1));
          DestTy = F->regType(R);
          Reg Wide = F->newReg(Type::I64, "wide");
          IRB.copyTo(Wide, DestTy == Type::I64 ? R : IRB.sext(32, R));
          IRB.ret(Wide);
        },
        OperandTy);
    expectTrapParity(*Probe, WantTrap, canonical(Want.Value, DestTy));

    // The raw register on constant operands: the full-register result,
    // with x86-64's zero extension of W32 results.
    auto M = std::make_unique<Module>("fold_probe");
    Function *F = M->createFunction("main", Type::I64);
    IRBuilder IRB(F);
    IRB.startBlock("entry");
    auto Const = [&](int64_t V) {
      return W32Op ? IRB.constI32(static_cast<int32_t>(V)) : IRB.constI64(V);
    };
    Reg ConstA = Const(Edge.A);
    Reg ConstB = Const(Edge.B);
    Reg R = emitEdge(IRB, Edge, ConstA, ConstB);
    Reg Wide = F->newReg(Type::I64, "wide");
    IRB.copyTo(Wide, R);
    IRB.ret(Wide);
    for (const TargetInfo *Target :
         {&TargetInfo::ia64(), &TargetInfo::ppc64(), &TargetInfo::generic64(),
          &TargetInfo::x86_64()}) {
      InterpOptions Machine;
      Machine.Target = Target;
      ExecResult Got = runModule(*M, Machine);
      EXPECT_EQ(Got.Trap, WantTrap) << Target->name();
      if (WantTrap == TrapKind::None) {
        EXPECT_EQ(Got.ReturnValue,
                  W32Op && Target->w32ResultsZeroExtend()
                      ? Want.Value & 0xFFFFFFFF
                      : Want.Value)
            << Target->name();
      }
    }

    // The folder either leaves the operation or folds it to the
    // evaluator's full-register value.
    runLocalOpts(*F);
    const Instruction *Def = nullptr;
    for (const Instruction &I : *F->entryBlock())
      if (I.hasDest() && I.dest() == R)
        Def = &I;
    ASSERT_NE(Def, nullptr);
    if (Def->opcode() == Opcode::ConstInt) {
      ++Folds;
      EXPECT_EQ(static_cast<uint64_t>(Def->intValue()), Want.Value);
    } else {
      EXPECT_EQ(Def->opcode(), Edge.Op);
    }
  }
  EXPECT_GT(Folds, 0u);
}

TEST(InterpTrapParity, D2IEdgesSaturateEverywhere) {
  const double Inf = std::numeric_limits<double>::infinity();
  const struct {
    double In;
    int32_t Java;
  } Edges[] = {
      {std::numeric_limits<double>::quiet_NaN(), 0},
      {Inf, INT32_MAX},
      {-Inf, INT32_MIN},
      {2147483648.0, INT32_MAX},
      {-2147483648.0, INT32_MIN},
      {2147483647.0, INT32_MAX},
      {-2147483649.0, INT32_MIN},
      {2147483646.75, 2147483646},
      {-0.5, 0},
  };
  for (const auto &Edge : Edges) {
    SCOPED_TRACE(std::to_string(Edge.In));
    EXPECT_EQ(d2i(Edge.In), Edge.Java);
    auto M = std::make_unique<Module>("d2i_probe");
    Function *F = M->createFunction("main", Type::I64);
    IRBuilder B(F);
    B.startBlock("entry");
    Reg D = B.constF64(Edge.In);
    Reg I = B.d2i(D, "i");
    Reg Wide = F->newReg(Type::I64, "wide");
    B.copyTo(Wide, B.sext(32, I));
    B.ret(Wide);
    expectTrapParity(*M, TrapKind::None, signExtend32(static_cast<uint32_t>(
                                             d2i(Edge.In))));
  }
}

TEST(InterpTrapParity, FCmpWithNaNHoldsOnlyForNe) {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Pairs[][2] = {{NaN, 1.0}, {1.0, NaN}, {NaN, NaN}};
  for (unsigned P = 0; P <= static_cast<unsigned>(CmpPred::UGE); ++P) {
    CmpPred Pred = static_cast<CmpPred>(P);
    for (const auto &Pair : Pairs) {
      SCOPED_TRACE(std::string(cmpPredName(Pred)) + " " +
                   std::to_string(Pair[0]) + ", " + std::to_string(Pair[1]));
      bool Want = fcmp(Pred, Pair[0], Pair[1]);
      EXPECT_EQ(Want, Pred == CmpPred::NE);
      auto M = std::make_unique<Module>("fcmp_probe");
      Function *F = M->createFunction("main", Type::I64);
      IRBuilder B(F);
      B.startBlock("entry");
      Reg A = B.constF64(Pair[0]);
      Reg Bv = B.constF64(Pair[1]);
      Reg C = B.fcmp(Pred, A, Bv, "c");
      Reg Wide = F->newReg(Type::I64, "wide");
      B.copyTo(Wide, C);
      B.ret(Wide);
      expectTrapParity(*M, TrapKind::None, Want ? 1 : 0);
    }
  }
}

TEST(InterpTest, ProfileCollection) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I32);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  Reg Ten = B.constI32(10);
  Reg I = F->newReg(Type::I32, "i");
  B.copyTo(I, Zero);
  BasicBlock *Head = F->createBlock("head");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.jmp(Head);
  B.setBlock(Head);
  Reg C = B.cmp32(CmpPred::SLT, I, Ten);
  Instruction *Branch = B.br(C, Body, Exit);
  B.setBlock(Body);
  Reg One = B.constI32(1);
  B.binopTo(I, Opcode::Add, Width::W32, I, One);
  B.jmp(Head);
  B.setBlock(Exit);
  B.ret(I);

  ProfileInfo Profile;
  InterpOptions Options;
  Options.Profile = &Profile;
  runModule(*M, Options);
  auto P = Profile.takenProbability(Branch);
  ASSERT_TRUE(P.has_value());
  EXPECT_NEAR(*P, 10.0 / 11.0, 1e-9);
}

/// A looped kernel with a call, an array and two data-dependent branches:
/// sum over i < 16 of (i even ? triple(i*i) : -(i*i)), stored to and
/// reloaded from an int[] before it is added.
std::unique_ptr<Module> buildLoopedKernel() {
  auto M = std::make_unique<Module>("m");
  Function *Triple = M->createFunction("triple", Type::I32);
  {
    Reg P = Triple->addParam(Type::I32, "p");
    IRBuilder B(Triple);
    B.startBlock("entry");
    B.ret(B.mul32(P, B.constI32(3)));
  }
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Arr = B.newArray(Type::I32, B.constI32(16), "arr");
  Reg I = F->newReg(Type::I32, "i");
  B.copyTo(I, B.constI32(0));
  Reg Sum = F->newReg(Type::I64, "sum");
  B.constTo(Sum, 0);
  BasicBlock *Head = F->createBlock("head");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Even = F->createBlock("even");
  BasicBlock *Odd = F->createBlock("odd");
  BasicBlock *Join = F->createBlock("join");
  BasicBlock *Exit = F->createBlock("exit");
  B.jmp(Head);
  B.setBlock(Head);
  B.br(B.cmp32(CmpPred::SLT, I, B.constI32(16)), Body, Exit);
  B.setBlock(Body);
  Reg Square = B.mul32(I, I, "square");
  Reg V = F->newReg(Type::I32, "v");
  Reg Low = B.and32(I, B.constI32(1));
  B.br(B.cmp32(CmpPred::EQ, Low, B.constI32(0)), Even, Odd);
  B.setBlock(Even);
  B.callTo(V, Triple, {Square});
  B.jmp(Join);
  B.setBlock(Odd);
  B.binopTo(V, Opcode::Sub, Width::W32, B.constI32(0), Square);
  B.jmp(Join);
  B.setBlock(Join);
  B.arrayStore(Type::I32, Arr, I, V);
  Reg W = B.arrayLoad(Type::I32, Arr, I, "w");
  B.binopTo(Sum, Opcode::Add, Width::W64, Sum, B.sext(32, W));
  B.binopTo(I, Opcode::Add, Width::W32, I, B.constI32(1));
  B.jmp(Head);
  B.setBlock(Exit);
  B.ret(Sum);
  return M;
}

/// The conditional branches of \p F, in block order.
std::vector<const Instruction *> branchesOf(const Function &F) {
  std::vector<const Instruction *> Branches;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : *BB)
      if (I.opcode() == Opcode::Br)
        Branches.push_back(&I);
  return Branches;
}

TEST(InterpTest, StepBudgetAtAndBelowTheInstructionCount) {
  auto M = buildLoopedKernel();
  ExecResult Full = runModule(*M);
  ASSERT_TRUE(Full.ok());
  const uint64_t Count = Full.ExecutedInstructions;

  InterpOptions Exact;
  Exact.MaxSteps = Count;
  ExecResult AtBudget = runModule(*M, Exact);
  EXPECT_EQ(AtBudget.Trap, TrapKind::None);
  EXPECT_EQ(AtBudget.ExecutedInstructions, Count);
  EXPECT_EQ(AtBudget.ReturnValue, Full.ReturnValue);
  EXPECT_EQ(AtBudget.Cycles, Full.Cycles);

  // One step short: the final ret never executes, so every earlier
  // instruction is counted and charged, and no return value is reported.
  InterpOptions Short;
  Short.MaxSteps = Count - 1;
  ExecResult BelowBudget = runModule(*M, Short);
  EXPECT_EQ(BelowBudget.Trap, TrapKind::StepLimit);
  EXPECT_EQ(BelowBudget.TrapMessage, "instruction budget exhausted");
  EXPECT_EQ(BelowBudget.ExecutedInstructions, Count - 1);
  EXPECT_EQ(BelowBudget.Cycles,
            Full.Cycles - TargetInfo::ia64().costs().Branch);
  EXPECT_EQ(BelowBudget.ReturnValue, 0u);
  EXPECT_EQ(BelowBudget.ExecutedSext32, Full.ExecutedSext32);
}

TEST(InterpTest, DeepRecursionKeepsCallerRegisters) {
  // depth(n) = n == 0 ? 0 : depth(n - 1) + 3n + (n ^ 85), with both
  // summands computed before the call and read after it returns.
  auto M = std::make_unique<Module>("m");
  Function *Depth = M->createFunction("depth", Type::I64);
  {
    Reg N = Depth->addParam(Type::I64, "n");
    IRBuilder B(Depth);
    B.startBlock("entry");
    BasicBlock *Base = Depth->createBlock("base");
    BasicBlock *Recurse = Depth->createBlock("recurse");
    B.br(B.cmp64(CmpPred::EQ, N, B.constI64(0)), Base, Recurse);
    B.setBlock(Base);
    B.ret(B.constI64(0));
    B.setBlock(Recurse);
    Reg Scaled = B.mul64(N, B.constI64(3), "scaled");
    Reg Mixed = B.binop(Opcode::Xor, Width::W64, N, B.constI64(85), "mixed");
    Reg Inner = B.call(Depth, {B.sub64(N, B.constI64(1))}, "inner");
    B.ret(B.add64(B.add64(Inner, Scaled), Mixed));
  }
  Function *Main = M->createFunction("main", Type::I64);
  {
    Reg N = Main->addParam(Type::I64, "n");
    IRBuilder B(Main);
    B.startBlock("entry");
    Reg Before = B.constI64(1000003, "before");
    Reg R = B.call(Depth, {N}, "r");
    B.ret(B.add64(R, Before));
  }

  // main plus depth(n)..depth(0) is n + 2 frames: n = MaxCallDepth - 2
  // fills the call stack exactly.
  const uint64_t Deepest = MaxCallDepth - 2;
  uint64_t Expected = 1000003;
  for (uint64_t N = 1; N <= Deepest; ++N)
    Expected += 3 * N + (N ^ 85);
  ExecResult R = runModule(*M, {}, {Deepest});
  ASSERT_EQ(R.Trap, TrapKind::None) << R.TrapMessage;
  EXPECT_EQ(R.ReturnValue, Expected);

  ExecResult Over = runModule(*M, {}, {Deepest + 1});
  EXPECT_EQ(Over.Trap, TrapKind::StackOverflow);
  EXPECT_EQ(Over.TrapMessage, "call depth limit exceeded");
}

TEST(InterpTest, JavaModeCanonicalizesCallResultsAtRet) {
  // narrow8/narrow16 return their i64 parameter as i8 / u16; the caller's
  // i64 destinations expose what the ret handed back.
  auto M = std::make_unique<Module>("m");
  Function *Narrow8 = M->createFunction("narrow8", Type::I8);
  {
    Reg P = Narrow8->addParam(Type::I64, "p");
    IRBuilder B(Narrow8);
    B.startBlock("entry");
    B.ret(P);
  }
  Function *Narrow16 = M->createFunction("narrow16", Type::U16);
  {
    Reg P = Narrow16->addParam(Type::I64, "p");
    IRBuilder B(Narrow16);
    B.startBlock("entry");
    B.ret(P);
  }
  Function *Main = M->createFunction("main", Type::I64);
  IRBuilder B(Main);
  B.startBlock("entry");
  Reg Byte = Main->newReg(Type::I64, "byte");
  B.callTo(Byte, Narrow8, {B.constI64(0x1FF)});
  Reg Half = Main->newReg(Type::I64, "half");
  B.callTo(Half, Narrow16, {B.constI64(0x3FFFF)});
  // -1 + 0xFFFF under Java semantics; 0x1FF + 0x3FFFF raw.
  B.ret(B.add64(Byte, Half));

  InterpOptions Java;
  Java.Semantics = ExecSemantics::Java;
  EXPECT_EQ(runModule(*M, Java).ReturnValue, 0xFFFEu);
  EXPECT_EQ(runModule(*M).ReturnValue, 0x1FFu + 0x3FFFFu);
}

TEST(InterpTest, X86MachineModeZeroExtendsW32AndD2IResults) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Diff = B.sub32(B.constI32(0), B.constI32(1), "diff"); // W32: -1.
  Reg Wide = F->newReg(Type::I64, "wide");
  B.copyTo(Wide, Diff);
  Reg Conv = B.d2i(B.constF64(-2.0), "conv");
  Reg WideConv = F->newReg(Type::I64, "wideconv");
  B.copyTo(WideConv, Conv);
  Reg Full = B.sub64(B.constI64(0), B.constI64(1), "full"); // W64: no mask.
  // Bits 0-31: diff; bits 32-63: conv's upper half; plus full's top bit.
  Reg Shifted = B.binop(Opcode::Shl, Width::W64, WideConv, B.constI64(32));
  Reg Packed = B.binop(Opcode::Xor, Width::W64, Wide, Shifted);
  Reg Top = B.binop(Opcode::Shr, Width::W64, Full, B.constI64(63));
  B.ret(B.add64(Packed, Top));

  InterpOptions X86;
  X86.Target = &TargetInfo::x86_64();
  // x86-64 zero-extends both 32-bit writes: 0xFFFFFFFF ^ (0xFFFFFFFE << 32),
  // plus the W64 subtract's unmasked sign bit.
  EXPECT_EQ(runModule(*M, X86).ReturnValue, 0xFFFFFFFEFFFFFFFFull + 1);
  // IA64 leaves the full-register results: -1 ^ (-2 << 32), plus one.
  EXPECT_EQ(runModule(*M).ReturnValue,
            (~0ull ^ (0xFFFFFFFFFFFFFFFEull << 32)) + 1);
}

TEST(InterpTest, OneInterpreterRunsMainTwiceIdentically) {
  auto M = buildLoopedKernel();
  for (ExecSemantics Mode : {ExecSemantics::Machine, ExecSemantics::Java}) {
    ProfileInfo Profile;
    InterpOptions Options;
    Options.Target = &TargetInfo::x86_64();
    Options.Semantics = Mode;
    Options.Profile = &Profile;
    Interpreter Interp(*M, Options);
    ExecResult First = Interp.run("main");
    const Instruction *Loop = branchesOf(*M->findFunction("main")).front();
    std::optional<double> FirstP = Profile.takenProbability(Loop);
    ExecResult Second = Interp.run("main");
    ASSERT_TRUE(First.ok());
    EXPECT_EQ(Second.Trap, First.Trap);
    EXPECT_EQ(Second.ReturnValue, First.ReturnValue);
    EXPECT_EQ(Second.ExecutedInstructions, First.ExecutedInstructions);
    EXPECT_EQ(Second.Cycles, First.Cycles);
    EXPECT_EQ(Second.totalExecutedConversions(),
              First.totalExecutedConversions());
    EXPECT_EQ(Second.ExecutedSext32, First.ExecutedSext32);
    // The second run doubles every count, so the ratios stay put.
    EXPECT_EQ(Profile.takenProbability(Loop), FirstP);
  }
}

TEST(InterpTest, LoopedKernelProfileIsPinned) {
  // Pins the exact probabilities and digest a Java-semantics run records,
  // so a change to how the interpreter collects profiles cannot move the
  // order-determination input or the code cache's profile key.
  auto M = buildLoopedKernel();
  ProfileInfo Profile;
  InterpOptions Java;
  Java.Semantics = ExecSemantics::Java;
  Java.Profile = &Profile;
  ExecResult R = runModule(*M, Java);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue, 1000u);

  std::vector<const Instruction *> Branches =
      branchesOf(*M->findFunction("main"));
  ASSERT_EQ(Branches.size(), 2u);
  EXPECT_EQ(Profile.takenProbability(Branches[0]), 16.0 / 17.0); // Loop.
  EXPECT_EQ(Profile.takenProbability(Branches[1]), 8.0 / 16.0);  // Even.
  EXPECT_EQ(Profile.fingerprint(), 0x66ad2da8187aa609ull);
}

} // namespace
