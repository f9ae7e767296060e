//===- tests/valuerange_test.cpp - Range analysis unit tests ---------------------===//

#include "analysis/AnalysisCache.h"
#include "ir/IRBuilder.h"
#include "ir/Semantics.h"
#include "opt/SimplifyCFG.h"
#include "support/RNG.h"
#include "sxe/Insertion.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace sxe;

namespace {

struct RangeFixture {
  std::unique_ptr<Module> M;
  Function *F;
  std::unique_ptr<AnalysisCache> Cache;
  const ValueRange *Ranges = nullptr;

  RangeFixture() {
    M = std::make_unique<Module>("m");
    F = M->createFunction("f", Type::I32);
  }

  void finalize(uint32_t MaxLen = 0x7FFFFFFF) {
    Cache = std::make_unique<AnalysisCache>(*F, TargetInfo::ia64(),
                                            /*Profile=*/nullptr, MaxLen);
    Ranges = &Cache->ranges();
  }

  const Instruction *defOf(Reg R) const {
    const Instruction *Last = nullptr;
    for (const auto &BB : F->blocks())
      for (const Instruction &I : *BB)
        if (I.hasDest() && I.dest() == R)
          Last = &I;
    return Last;
  }
};

TEST(ValueRangeTest, ConstantsAreExact) {
  RangeFixture Fx;
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg C = B.constI32(42);
  B.ret(C);
  Fx.finalize();
  ValueInterval R = Fx.Ranges->rangeOfDef(Fx.defOf(C));
  EXPECT_EQ(R.Lo, 42);
  EXPECT_EQ(R.Hi, 42);
}

TEST(ValueRangeTest, ArithmeticPropagates) {
  RangeFixture Fx;
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg A = B.constI32(10);
  Reg Bv = B.constI32(3);
  Reg Sum = B.add32(A, Bv, "sum");
  Reg Diff = B.sub32(A, Bv, "diff");
  Reg Prod = B.mul32(A, Bv, "prod");
  Reg Quot = B.div32(A, Bv, "quot");
  Reg Remv = B.rem32(A, Bv, "rem");
  B.ret(Sum);
  (void)Diff;
  (void)Prod;
  (void)Quot;
  (void)Remv;
  Fx.finalize();
  EXPECT_EQ(Fx.Ranges->rangeOfDef(Fx.defOf(Sum)).Lo, 13);
  EXPECT_EQ(Fx.Ranges->rangeOfDef(Fx.defOf(Diff)).Hi, 7);
  EXPECT_EQ(Fx.Ranges->rangeOfDef(Fx.defOf(Prod)).Lo, 30);
  EXPECT_EQ(Fx.Ranges->rangeOfDef(Fx.defOf(Quot)).Lo, 3);
  ValueInterval RR = Fx.Ranges->rangeOfDef(Fx.defOf(Remv));
  EXPECT_GE(RR.Lo, 0);
  EXPECT_LE(RR.Hi, 2);
}

TEST(ValueRangeTest, W32AddOverflowWidensToFull32) {
  RangeFixture Fx;
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg A = B.constI32(INT32_MAX);
  Reg One = B.constI32(1);
  Reg Sum = B.add32(A, One, "sum");
  B.ret(Sum);
  Fx.finalize();
  ValueInterval R = Fx.Ranges->rangeOfDef(Fx.defOf(Sum));
  EXPECT_EQ(R.Lo, INT32_MIN);
  EXPECT_EQ(R.Hi, INT32_MAX);
}

TEST(ValueRangeTest, W64OverflowWidensToFull64) {
  // A 64-bit result past INT64_MAX wraps to the negative end: INT64_MAX + 1
  // is INT64_MIN. Clamping the mathematical interval at INT64_MAX left
  // every wrapped value outside the range.
  RangeFixture Fx;
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg Max = B.constI64(INT64_MAX);
  Reg Min = B.constI64(INT64_MIN);
  Reg One = B.constI64(1);
  Reg Sum = B.binop(Opcode::Add, Width::W64, Max, One, "sum");
  Reg Diff = B.binop(Opcode::Sub, Width::W64, Min, One, "diff");
  Reg Prod = B.binop(Opcode::Mul, Width::W64, Max, Max, "prod");
  Reg Shifted = B.binop(Opcode::Shl, Width::W64, Max, One, "shifted");
  B.ret(B.constI32(0));
  Fx.finalize();
  for (Reg R : {Sum, Diff, Prod, Shifted})
    EXPECT_EQ(Fx.Ranges->rangeOfDef(Fx.defOf(R)), ValueInterval::full64())
        << Fx.F->regName(R);
}

TEST(ValueRangeTest, W64OrKeepsBitsAbove2To62) {
  // 2^62 | 1 == 2^62 + 1: the or/xor bound stopped doubling at 2^62.
  RangeFixture Fx;
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg Big = B.constI64(int64_t(1) << 62);
  Reg One = B.constI64(1);
  Reg Or = B.binop(Opcode::Or, Width::W64, Big, One, "or");
  B.ret(B.constI32(0));
  Fx.finalize();
  ValueInterval R = Fx.Ranges->rangeOfDef(Fx.defOf(Or));
  EXPECT_LE(R.Lo, (int64_t(1) << 62) + 1);
  EXPECT_GE(R.Hi, (int64_t(1) << 62) + 1);
}

TEST(ValueRangeTest, W64DivisionByMinusOneWrapsLongMin) {
  // Long.MIN_VALUE / -1 wraps to Long.MIN_VALUE. The transfer evaluated
  // this corner quotient in C++, where it faults.
  RangeFixture Fx;
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg Min = B.constI64(INT64_MIN);
  Reg MinusOne = B.constI64(-1);
  Reg Q = B.binop(Opcode::Div, Width::W64, Min, MinusOne, "q");
  B.ret(B.constI32(0));
  Fx.finalize();
  ValueInterval R = Fx.Ranges->rangeOfDef(Fx.defOf(Q));
  EXPECT_EQ(R.Lo, INT64_MIN);
}

TEST(ValueRangeTest, W64RemainderByLongMinIsBounded) {
  // INT64_MAX % INT64_MIN == INT64_MAX. The bound |divisor| - 1 came from
  // llabs(INT64_MIN), which overflows.
  RangeFixture Fx;
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg Max = B.constI64(INT64_MAX);
  Reg Min = B.constI64(INT64_MIN);
  Reg Rem = B.binop(Opcode::Rem, Width::W64, Max, Min, "rem");
  B.ret(B.constI32(0));
  Fx.finalize();
  ValueInterval R = Fx.Ranges->rangeOfDef(Fx.defOf(Rem));
  EXPECT_EQ(R.Lo, 0);
  EXPECT_EQ(R.Hi, INT64_MAX);
}

TEST(ValueRangeTest, AndWithNonNegativeBounds) {
  RangeFixture Fx;
  Reg P = Fx.F->addParam(Type::I32, "p");
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg Mask = B.constI32(0xFF);
  Reg Masked = B.and32(P, Mask, "masked");
  B.ret(Masked);
  Fx.finalize();
  ValueInterval R = Fx.Ranges->rangeOfDef(Fx.defOf(Masked));
  EXPECT_EQ(R.Lo, 0);
  EXPECT_LE(R.Hi, 0xFF);
}

TEST(ValueRangeTest, ShrWithNonZeroCountIsNonNegative) {
  RangeFixture Fx;
  Reg P = Fx.F->addParam(Type::I32, "p");
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg Eight = B.constI32(8);
  Reg R = B.shr32(P, Eight, "r");
  B.ret(R);
  Fx.finalize();
  ValueInterval RR = Fx.Ranges->rangeOfDef(Fx.defOf(R));
  EXPECT_EQ(RR.Lo, 0);
  EXPECT_LE(RR.Hi, 0xFFFFFF);
}

TEST(ValueRangeTest, RawByteLoadIsZeroTo255) {
  // The I8 register holds the RAW zero-extended byte until sext8 runs —
  // the default range must not assume canonical [-128,127].
  RangeFixture Fx;
  Reg A = Fx.F->addParam(Type::ArrayRef, "a");
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  Reg Raw = B.arrayLoad(Type::I8, A, Zero, "raw");
  Reg Val = B.sext(8, Raw, "val");
  B.ret(Val);
  Fx.finalize();
  ValueInterval RawR = Fx.Ranges->rangeOfDef(Fx.defOf(Raw));
  EXPECT_EQ(RawR.Lo, 0);
  EXPECT_EQ(RawR.Hi, 255);
  ValueInterval ValR = Fx.Ranges->rangeOfDef(Fx.defOf(Val));
  EXPECT_EQ(ValR.Lo, -128);
  EXPECT_EQ(ValR.Hi, 127);
}

TEST(ValueRangeTest, GuardRefinesLoopCounter) {
  // for (i = 0; i < 100; ++i): inside the body, i is in [0, 99].
  RangeFixture Fx;
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  Reg Hundred = B.constI32(100);
  Reg I = Fx.F->newReg(Type::I32, "i");
  B.copyTo(I, Zero);
  BasicBlock *Head = Fx.F->createBlock("head");
  BasicBlock *Body = Fx.F->createBlock("body");
  BasicBlock *Exit = Fx.F->createBlock("exit");
  B.jmp(Head);
  B.setBlock(Head);
  Reg C = B.cmp32(CmpPred::SLT, I, Hundred);
  B.br(C, Body, Exit);
  B.setBlock(Body);
  Reg One = B.constI32(1);
  Reg Doubled = B.add32(I, I, "doubled"); // Uses i under the guard.
  B.binopTo(I, Opcode::Add, Width::W32, I, One);
  B.jmp(Head);
  B.setBlock(Exit);
  B.ret(I);
  (void)Doubled;
  Fx.finalize();

  // The use of i in `doubled` sees the guard: i <= 99; the entry copy
  // bounds it below at 0 after the fixpoint.
  const Instruction *DoubledDef = Fx.defOf(Doubled);
  ValueInterval R = Fx.Ranges->rangeOfUse(DoubledDef, 0);
  EXPECT_GE(R.Lo, 0);
  EXPECT_LE(R.Hi, 99);
  // And the doubled value is at most 198.
  ValueInterval DR = Fx.Ranges->rangeOfDef(DoubledDef);
  EXPECT_LE(DR.Hi, 198);
}

TEST(ValueRangeTest, GuardInvalidAfterRedefinition) {
  RangeFixture Fx;
  Reg P = Fx.F->addParam(Type::I32, "p");
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg Ten = B.constI32(10);
  Reg C = B.cmp32(CmpPred::SLT, P, Ten);
  BasicBlock *Then = Fx.F->createBlock("then");
  BasicBlock *Done = Fx.F->createBlock("done");
  B.br(C, Then, Done);
  B.setBlock(Then);
  Reg Big = B.constI32(1 << 20);
  Reg X = Fx.F->newReg(Type::I32, "x");
  B.copyTo(X, P);             // x <= 9 here...
  B.binopTo(X, Opcode::Add, Width::W32, P, Big); // ...but p is not
                                                 // redefined: guard holds.
  Reg Probe = B.add32(P, P, "probe"); // p still guarded.
  B.jmp(Done);
  B.setBlock(Done);
  B.ret(P);
  (void)X;
  Fx.finalize();

  const Instruction *ProbeDef = Fx.defOf(Probe);
  ValueInterval R = Fx.Ranges->rangeOfUse(ProbeDef, 0);
  EXPECT_LE(R.Hi, 9);
}

TEST(ValueRangeTest, GuardHoldsInBlockWhoseIdOutlivesErasedBlocks) {
  // Block ids are creation-ordered and never reused. Once SimplifyCFG
  // threads the three hops away, the guarded block keeps id 4 in a
  // function of three blocks: guard validity must follow the dense block
  // number, not the id.
  RangeFixture Fx;
  Reg P = Fx.F->addParam(Type::I32, "p");
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  BasicBlock *Hop1 = Fx.F->createBlock("hop1");
  BasicBlock *Hop2 = Fx.F->createBlock("hop2");
  BasicBlock *Hop3 = Fx.F->createBlock("hop3");
  BasicBlock *Then = Fx.F->createBlock("then");
  BasicBlock *Done = Fx.F->createBlock("done");
  Reg Ten = B.constI32(10);
  Reg C = B.cmp32(CmpPred::SLT, P, Ten);
  B.br(C, Hop1, Done);
  B.setBlock(Hop1);
  B.jmp(Hop2);
  B.setBlock(Hop2);
  B.jmp(Hop3);
  B.setBlock(Hop3);
  B.jmp(Then);
  B.setBlock(Then);
  Reg Probe = B.add32(P, P, "probe"); // p < 10 on the only path here.
  B.jmp(Done);
  B.setBlock(Done);
  B.ret(P);

  Fx.Cache = std::make_unique<AnalysisCache>(*Fx.F, TargetInfo::ia64());
  EXPECT_EQ(runSimplifyCFG(*Fx.Cache), 3u);
  ASSERT_EQ(Fx.F->numBlocks(), 3u);
  ASSERT_GE(Then->id(), Fx.F->numBlocks());
  Fx.Ranges = &Fx.Cache->ranges();

  ValueInterval R = Fx.Ranges->rangeOfUse(Fx.defOf(Probe), 0);
  EXPECT_LE(R.Hi, 9);
}

TEST(ValueRangeTest, ArrayLengthBoundFromNewArray) {
  RangeFixture Fx;
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg Len = B.constI32(64);
  Reg Arr = B.newArray(Type::I32, Len, "arr");
  Reg Zero = B.constI32(0);
  Reg V = B.arrayLoad(Type::I32, Arr, Zero, "v");
  B.ret(V);
  Fx.finalize();
  const Instruction *Load = Fx.defOf(V);
  EXPECT_EQ(Fx.Ranges->arrayLengthBound(Load, 0), 64u);
}

TEST(ValueRangeTest, ArrayLengthBoundCappedByMaxLen) {
  RangeFixture Fx;
  Reg A = Fx.F->addParam(Type::ArrayRef, "a");
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  Reg V = B.arrayLoad(Type::I32, A, Zero, "v");
  B.ret(V);
  Fx.finalize(/*MaxLen=*/0x1000);
  const Instruction *Load = Fx.defOf(V);
  EXPECT_EQ(Fx.Ranges->arrayLengthBound(Load, 0), 0x1000u);
}

TEST(ValueRangeTest, DummyExtendBoundsTheIndex) {
  RangeFixture Fx;
  Reg A = Fx.F->addParam(Type::ArrayRef, "a");
  Reg P = Fx.F->addParam(Type::I32, "p");
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg V = B.arrayLoad(Type::I32, A, P, "v");
  Reg Probe = B.add32(P, P, "probe"); // Sees the dummy's range.
  B.ret(Probe);
  (void)V;
  insertDummyExtends(*Fx.F);
  Fx.finalize();

  const Instruction *ProbeDef = Fx.defOf(Probe);
  ValueInterval R = Fx.Ranges->rangeOfUse(ProbeDef, 0);
  EXPECT_GE(R.Lo, 0); // Post-access, the index is known non-negative.
}

TEST(ValueRangeTest, CmpAndArrayLenFacts) {
  RangeFixture Fx;
  Reg A = Fx.F->addParam(Type::ArrayRef, "a");
  Reg P = Fx.F->addParam(Type::I32, "p");
  IRBuilder B(Fx.F);
  B.startBlock("entry");
  Reg C = B.cmp32(CmpPred::SLT, P, P, "c");
  Reg L = B.arrayLen(A, "l");
  B.ret(B.add32(C, L));
  Fx.finalize();
  ValueInterval CR = Fx.Ranges->rangeOfDef(Fx.defOf(C));
  EXPECT_EQ(CR.Lo, 0);
  EXPECT_EQ(CR.Hi, 1);
  ValueInterval LR = Fx.Ranges->rangeOfDef(Fx.defOf(L));
  EXPECT_EQ(LR.Lo, 0);
  EXPECT_EQ(LR.Hi, 0x7FFFFFFF);
}

// --- Transfer functions against the concrete evaluator ---------------------
//
// Theorems 1-4 rest on the transfer functions being sound. The property:
// for operands drawn from intervals the analysis computed, the concrete
// result (ir/Semantics.h), projected the way ValueRange tracks it, lies in
// the range the analysis gives the result. Each operand is
// add(and(%p, m), c) of a parameter, so its interval is [c, c + m] for a
// mask m = 2^k - 1, wrapping where c + m overflows. One end of the
// interval is a constant biased toward the width's boundaries, where
// wraparound lives. A W32 operation is also written into an I64 register,
// whose tracked value is the full register: on ia64 the 64-bit
// operation's upper half stays there, and x86-64 zero-extends every W32
// result, so both targets are checked.

/// An interesting signed constant of the width: boundaries, small values,
/// or uniform.
int64_t sampleConstant(RNG &R, bool W32) {
  const int64_t Min = W32 ? INT32_MIN : INT64_MIN;
  const int64_t Max = W32 ? INT32_MAX : INT64_MAX;
  switch (R.nextBelow(8)) {
  case 0:
    return 0;
  case 1:
    return -1;
  case 2:
    return Min;
  case 3:
    return Max;
  case 4:
    return R.nextInRange(-64, 64);
  case 5:
    return Max - static_cast<int64_t>(R.nextBelow(64));
  case 6:
    return Min + static_cast<int64_t>(R.nextBelow(64));
  default:
    return W32 ? static_cast<int32_t>(R.next())
               : static_cast<int64_t>(R.next());
  }
}

/// An and-mask: mostly 2^k - 1, which makes the operand interval dense;
/// sometimes all ones or uniform.
int64_t sampleMask(RNG &R, bool W32) {
  switch (R.nextBelow(6)) {
  case 0:
    return -1;
  case 1:
    return W32 ? static_cast<int32_t>(R.next())
               : static_cast<int64_t>(R.next());
  default:
    return static_cast<int64_t>(
        (uint64_t(1) << R.nextBelow(W32 ? 32 : 64)) - 1);
  }
}

/// The value ValueRange tracks for a register of type \p Ty holding
/// \p Register: the signed lower 32 bits for I8..I32, the full value for
/// I64.
int64_t tracked(uint64_t Register, Type Ty) {
  return isSubRegisterIntType(Ty)
             ? static_cast<int64_t>(static_cast<int32_t>(Register))
             : static_cast<int64_t>(Register);
}

class TransferSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransferSoundness, ConcreteResultsLieInTheirRanges) {
  static const Opcode Binary[] = {
      Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div,
      Opcode::Rem, Opcode::And, Opcode::Or,  Opcode::Xor,
      Opcode::Shl, Opcode::Shr, Opcode::Sar, Opcode::Cmp};
  static const Opcode Unary[] = {
      Opcode::Neg,    Opcode::Not,    Opcode::Sext8,  Opcode::Sext16,
      Opcode::Sext32, Opcode::Zext8,  Opcode::Zext16, Opcode::Zext32,
      Opcode::Trunc32};
  RNG R(GetParam());
  unsigned Checked = 0;
  for (Width W : {Width::W32, Width::W64}) {
    const bool W32 = W == Width::W32;
    const Type Ty = W32 ? Type::I32 : Type::I64;
    for (int Config = 0; Config < 48; ++Config) {
      int64_t Masks[2], Offsets[2];
      for (unsigned Index = 0; Index < 2; ++Index) {
        Masks[Index] = sampleMask(R, W32);
        // The interval starts or ends at the sampled constant.
        uint64_t End = static_cast<uint64_t>(sampleConstant(R, W32));
        if (R.nextChance(1, 2))
          End -= static_cast<uint64_t>(Masks[Index]);
        Offsets[Index] = static_cast<int64_t>(canonical(End, Ty));
      }
      CmpPred Pred = static_cast<CmpPred>(
          R.nextBelow(static_cast<unsigned>(CmpPred::UGE) + 1));

      auto M = std::make_unique<Module>("m");
      Function *F = M->createFunction("f", Ty);
      Reg Params[2] = {F->addParam(Ty, "p"), F->addParam(Ty, "q")};
      IRBuilder B(F);
      B.startBlock("entry");
      auto Const = [&](int64_t V) {
        return W32 ? B.constI32(static_cast<int32_t>(V)) : B.constI64(V);
      };
      Reg Operands[2];
      for (unsigned Index = 0; Index < 2; ++Index)
        Operands[Index] =
            B.binop(Opcode::Add, W,
                    B.binop(Opcode::And, W, Params[Index],
                            Const(Masks[Index])),
                    Const(Offsets[Index]));
      // One result register per operation, in table order.
      std::vector<std::pair<Opcode, Reg>> Results;
      for (Opcode Op : Binary)
        Results.push_back(
            {Op, Op == Opcode::Cmp
                     ? B.cmp(Pred, W, Operands[0], Operands[1])
                     : B.binop(Op, W, Operands[0], Operands[1])});
      for (Opcode Op : Unary) {
        Reg A = Operands[0];
        Reg Dest;
        switch (Op) {
        case Opcode::Neg:
        case Opcode::Not:
          Dest = B.unop(Op, W, A);
          break;
        case Opcode::Sext8:
          Dest = B.sext(8, A);
          break;
        case Opcode::Sext16:
          Dest = B.sext(16, A);
          break;
        case Opcode::Sext32:
          Dest = B.sext(32, A);
          break;
        case Opcode::Zext8:
          Dest = B.zext8(A);
          break;
        case Opcode::Zext16:
          Dest = B.zext16(A);
          break;
        case Opcode::Zext32:
          Dest = B.zext32(A);
          break;
        default:
          Dest = B.trunc32(A);
          break;
        }
        Results.push_back({Op, Dest});
      }
      if (W32) {
        // The same operations into I64 registers (a compare's 0/1 needs
        // no second check).
        for (Opcode Op : Binary)
          if (Op != Opcode::Cmp)
            Results.push_back(
                {Op, B.binopTo(F->newReg(Type::I64), Op, W, Operands[0],
                               Operands[1])
                         ->dest()});
        for (Opcode Op : {Opcode::Neg, Opcode::Not})
          Results.push_back(
              {Op, B.unopTo(F->newReg(Type::I64), Op, W, Operands[0])
                       ->dest()});
      }
      B.ret(Operands[0]);

      std::vector<const Instruction *> DefOf(F->numRegs(), nullptr);
      for (const Instruction &I : *F->entryBlock())
        if (I.hasDest())
          DefOf[I.dest()] = &I;

      // Parameters arrive canonical.
      std::vector<std::pair<uint64_t, uint64_t>> Arguments;
      for (int Sample = 0; Sample < 64; ++Sample) {
        uint64_t P = canonical(static_cast<uint64_t>(sampleConstant(R, W32)),
                               Ty);
        uint64_t Q = canonical(static_cast<uint64_t>(sampleConstant(R, W32)),
                               Ty);
        Arguments.push_back({P, Q});
      }

      for (const TargetInfo *Target :
           {&TargetInfo::ia64(), &TargetInfo::x86_64()}) {
        AnalysisCache Cache(*F, *Target);
        const ValueRange &Ranges = Cache.ranges();
        // The register a W32 operation leaves on this target (the
        // conversions have no width and are not masked).
        auto onTarget = [&](uint64_t Register) {
          return W32 && Target->w32ResultsZeroExtend() ? Register & 0xFFFFFFFF
                                                       : Register;
        };

        auto expectIn = [&](Reg Dest, uint64_t Register, const char *What,
                            const std::string &Inputs) {
          ValueInterval Range = Ranges.rangeOfDef(DefOf[Dest]);
          int64_t Value = tracked(Register, F->regType(Dest));
          ++Checked;
          if (Value >= Range.Lo && Value <= Range.Hi)
            return true;
          ADD_FAILURE() << What << (W32 ? ".w32" : ".w64") << " into "
                        << typeName(F->regType(Dest)) << " on "
                        << Target->name() << " = " << Value << " outside ["
                        << Range.Lo << ", " << Range.Hi << "] for " << Inputs;
          return false;
        };

        for (const auto &[P, Q] : Arguments) {
          // The and/add run on full registers.
          uint64_t Regs[2];
          uint64_t Argument[2] = {P, Q};
          for (unsigned Index = 0; Index < 2; ++Index) {
            uint64_t Mask = static_cast<uint64_t>(Masks[Index]);
            uint64_t Offset = static_cast<uint64_t>(Offsets[Index]);
            uint64_t Masked = onTarget(
                evaluate(Opcode::And, W, Pred, Argument[Index], Mask).Value);
            Regs[Index] =
                onTarget(evaluate(Opcode::Add, W, Pred, Masked, Offset).Value);
          }
          std::ostringstream Inputs;
          Inputs << "a = " << tracked(Regs[0], Ty) << " (" << Offsets[0]
                 << " + (p & " << Masks[0] << ")), b = "
                 << tracked(Regs[1], Ty) << " (" << Offsets[1] << " + (q & "
                 << Masks[1] << ")), pred " << cmpPredName(Pred);
          bool Sound = expectIn(Operands[0], Regs[0], "a", Inputs.str()) &&
                       expectIn(Operands[1], Regs[1], "b", Inputs.str());
          for (const auto &[Op, Dest] : Results) {
            if (!Sound)
              break;
            // A divide reads sign-extended operands: the pipeline keeps
            // Div/Rem operands extended (sxe/ExtensionFacts.h).
            Evaluation E = evaluate(Op, W, Pred, Regs[0], Regs[1],
                                    DivOperands::Low32);
            if (E.DivByZero)
              continue;
            uint64_t Register =
                DefOf[Dest]->info().HasWidth ? onTarget(E.Value) : E.Value;
            Sound = expectIn(Dest, Register, opcodeMnemonic(Op), Inputs.str());
          }
          if (!Sound)
            return; // One report per seed keeps a failure readable.
        }
      }
    }
  }
  EXPECT_GT(Checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransferSoundness,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

} // namespace
