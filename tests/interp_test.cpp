//===- tests/interp_test.cpp - Machine/Java semantics tests ----------------------===//

#include "interp/Interpreter.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "pm/InstrumentedPipeline.h"
#include "sxe/Pipeline.h"
#include "target/TargetInfo.h"

#include <gtest/gtest.h>

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

  InterpOptions Options;
  Options.MaxCallDepth = 64;
  EXPECT_EQ(runModule(*M, Options).Trap, TrapKind::StackOverflow);
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
  if (ExpectedTrap == TrapKind::None)
    EXPECT_EQ(Oracle.ReturnValue, ExpectedValue);

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

/// Builds main with an i32 array holding \p Values; \p Body gets a loader
/// that fetches element I as a canonical (sign-extended) i32. Values pass
/// through memory so no pass can fold the edge case away at compile time.
std::unique_ptr<Module>
buildArrayProbe(const std::vector<int32_t> &Values,
                const std::function<void(IRBuilder &, Function *,
                                         std::function<Reg(unsigned)>)> &Body) {
  auto M = std::make_unique<Module>("trap_probe");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Len = B.constI32(static_cast<int32_t>(Values.size()));
  Reg Arr = B.newArray(Type::I32, Len, "arr");
  for (size_t Index = 0; Index < Values.size(); ++Index)
    B.arrayStore(Type::I32, Arr, B.constI32(static_cast<int32_t>(Index)),
                 B.constI32(Values[Index]));
  auto Load = [&B, Arr](unsigned Index) {
    Reg Raw = B.arrayLoad(Type::I32, Arr, B.constI32(Index), "raw");
    return B.sext(32, Raw, "canon");
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
  auto M = std::make_unique<Module>("trap_probe");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Len = B.constI32(2);
  Reg Arr = B.newArray(Type::I64, Len, "wide_arr");
  B.arrayStore(Type::I64, Arr, B.constI32(0), B.constI64(INT64_MIN));
  B.arrayStore(Type::I64, Arr, B.constI32(1), B.constI64(-1));
  Reg A = B.arrayLoad(Type::I64, Arr, B.constI32(0), "a");
  Reg D = B.arrayLoad(Type::I64, Arr, B.constI32(1), "d");
  Reg Q = B.binop(Opcode::Div, Width::W64, A, D, "q");
  B.ret(Q);
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

} // namespace
