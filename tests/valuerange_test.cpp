//===- tests/valuerange_test.cpp - Range analysis unit tests ---------------------===//

#include "analysis/AnalysisCache.h"
#include "ir/IRBuilder.h"
#include "opt/SimplifyCFG.h"
#include "sxe/Insertion.h"

#include <gtest/gtest.h>

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

} // namespace
