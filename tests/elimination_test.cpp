//===- tests/elimination_test.cpp - Targeted elimination behaviour ---------------===//
//
// Unit-level checks of the conversion and elimination machinery beyond the
// paper's worked examples: gen-def vs gen-use placement, the AnalyzeDEF
// Case 1 facts (AND with a positive operand, logical shifts), no-self-
// justification masking, 8/16-bit extensions, cross-register extensions
// becoming copies, and target sensitivity (IA64 vs PPC64 loads).
//
//===--------------------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "pm/InstrumentedPipeline.h"
#include "sxe/Conversion64.h"
#include "sxe/Elimination.h"
#include "sxe/FirstAlgorithm.h"
#include "sxe/Insertion.h"
#include "sxe/OrderDetermination.h"
#include "sxe/Pipeline.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

using namespace sxe;
using namespace sxe::test;

namespace {

/// Runs the basic ud/du elimination (no insertion/order/array) over F.
EliminationStats eliminateBasic(Function &F,
                                const TargetInfo &T = TargetInfo::ia64(),
                                bool ArrayTheorems = false) {
  insertDummyExtends(F);
  std::vector<Instruction *> Order = extensionsInReverseDFS(F);
  EliminationOptions Options;
  Options.Target = &T;
  Options.EnableArrayTheorems = ArrayTheorems;
  return runElimination(F, Order, Options);
}

TEST(ConversionTest, GenDefInsertsAfterUnextendedDefs) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::F64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg X = B.add32(P, P, "x"); // Not guaranteed extended -> extend after.
  Reg C = B.cmp32(CmpPred::SLT, X, P, "c"); // 0/1 -> no extend.
  Reg D = B.i2d(X, "d");
  B.ret(D);
  (void)C;

  unsigned Generated =
      runConversion64(*F, TargetInfo::ia64(), GenPolicy::AfterDef);
  EXPECT_EQ(Generated, 1u);
  // The extension directly follows the add.
  auto It = F->entryBlock()->begin();
  EXPECT_EQ(It->opcode(), Opcode::Add);
  ++It;
  EXPECT_EQ(It->opcode(), Opcode::Sext32);
}

TEST(ConversionTest, GenUseInsertsBeforeRequiringUsesOnly) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::F64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg X = B.add32(P, P, "x");
  Reg Y = B.add32(X, P, "y"); // Plain W32 use: no extension.
  Reg D = B.i2d(Y, "d");      // Requiring use: one extension before.
  B.ret(D);

  unsigned Generated =
      runConversion64(*F, TargetInfo::ia64(), GenPolicy::BeforeUse);
  EXPECT_EQ(Generated, 1u);
  // It sits immediately before the i2d.
  const Instruction *Prev = nullptr;
  for (const Instruction &I : *F->entryBlock()) {
    if (I.opcode() == Opcode::I2D) {
      ASSERT_NE(Prev, nullptr);
      EXPECT_TRUE(Prev->isSext());
    }
    Prev = &I;
  }
}

TEST(ConversionTest, GenUseSkipsObviouslyExtendedSources) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::F64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg X = B.sext(32, P, "x"); // Extended by construction.
  Reg D = B.i2d(X, "d");
  B.ret(D);

  EXPECT_EQ(runConversion64(*F, TargetInfo::ia64(), GenPolicy::BeforeUse),
            0u);
}

TEST(ConversionTest, ShortLoadNeedsNoExtendOnPPC64) {
  auto build = [] {
    auto M = std::make_unique<Module>("m");
    Function *F = M->createFunction("f", Type::I32);
    Reg A = F->addParam(Type::ArrayRef, "a");
    IRBuilder B(F);
    B.startBlock("entry");
    Reg Zero = B.constI32(0);
    Reg V = B.arrayLoad(Type::I16, A, Zero, "v");
    Reg W = B.add32(V, V, "w");
    B.ret(W);
    return M;
  };

  auto OnIA64 = build();
  runConversion64(*OnIA64->findFunction("f"), TargetInfo::ia64(),
                  GenPolicy::AfterDef);
  // IA64 zero-extends: the short needs a sext16 (plus the add's sext32).
  EXPECT_EQ(countSext(*OnIA64->findFunction("f")), 2u);

  auto OnPPC = build();
  runConversion64(*OnPPC->findFunction("f"), TargetInfo::ppc64(),
                  GenPolicy::AfterDef);
  // PPC64 lha sign-extends: only the add needs one.
  EXPECT_EQ(countSext(*OnPPC->findFunction("f")), 1u);
}

TEST(EliminationTest, AndWithPositiveConstantDischargesExtension) {
  // The paper's AnalyzeDEF Case 1 example: j = j & 0x0fffffff is known
  // sign-extended, so a later extension of j dies even when a requiring
  // use follows.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::F64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg C = B.constI32(0x0FFFFFFF);
  Reg J = B.and32(P, C, "j");
  B.sextTo(J, 32, J); // Candidate.
  Reg D = B.i2d(J, "d");
  B.ret(D);

  EliminationStats S = eliminateBasic(*F);
  EXPECT_EQ(S.Eliminated, 1u);
  EXPECT_EQ(countSext(*F), 0u);
}

TEST(EliminationTest, AndWithGarbageOperandsKeepsExtension) {
  // x & y where neither side is provably non-negative: the AND result has
  // garbage upper bits, so the extension before i2d must stay.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::F64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg X = B.add32(P, P, "x"); // Garbage upper bits.
  Reg Y = B.mul32(P, P, "y"); // Garbage upper bits, any sign.
  Reg J = B.and32(X, Y, "j");
  B.sextTo(J, 32, J);
  Reg D = B.i2d(J, "d");
  B.ret(D);

  eliminateBasic(*F);
  EXPECT_EQ(countSext(*F), 1u);
}

TEST(EliminationTest, ShrResultIsExtendedWhenCountNonZero) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::F64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Eight = B.constI32(8);
  Reg X = B.shr32(P, Eight, "x"); // [0, 2^24): extended by lowering.
  B.sextTo(X, 32, X);
  Reg D = B.i2d(X, "d");
  B.ret(D);

  eliminateBasic(*F);
  EXPECT_EQ(countSext(*F), 0u);
}

TEST(EliminationTest, NoSelfJustificationThroughArrayTheorems) {
  // A subscript whose ONLY extendedness witness is the extension under
  // analysis must keep it: i's defs are a mul (never extended), so the
  // extension in front of a[i] cannot remove itself.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg A = F->addParam(Type::ArrayRef, "a");
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg I = B.mul32(P, P, "i");
  B.sextTo(I, 32, I); // Candidate that must survive.
  Reg V = B.arrayLoad(Type::I32, A, I, "v");
  B.ret(V);

  eliminateBasic(*F, TargetInfo::ia64(), /*ArrayTheorems=*/true);
  EXPECT_EQ(countSext(*F), 1u);
}

TEST(EliminationTest, ZeroUpperSubscriptNeedsNoExtension) {
  // Theorem 1: on IA64 an int load is zero-extended; using it directly
  // as a subscript discharges the extension.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg A = F->addParam(Type::ArrayRef, "a");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  Reg I = B.arrayLoad(Type::I32, A, Zero, "i");
  B.sextTo(I, 32, I);
  Reg V = B.arrayLoad(Type::I32, A, I, "v");
  B.ret(V);

  eliminateBasic(*F, TargetInfo::ia64(), /*ArrayTheorems=*/true);
  EXPECT_EQ(countSext(*F), 0u);
}

TEST(EliminationTest, SixteenBitExtensionEliminatedBySameAlgorithm) {
  // "8-bit and 16-bit sign extensions are also eliminated based on the
  // same algorithm": two consecutive sext16 of the same register.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I16, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg X = F->newReg(Type::I16, "x");
  B.copyTo(X, P);
  B.sextTo(X, 16, X); // Source is a canonical I16 parameter: redundant.
  Reg Y = B.add32(X, X, "y");
  B.ret(Y);

  EliminationStats S = eliminateBasic(*F);
  EXPECT_EQ(S.Eliminated, 1u);
  EXPECT_EQ(countSext(*F), 0u);
}

TEST(EliminationTest, ByteLoadKeepsSemanticSext8) {
  // The raw byte is [0,255]; sext8 changes values >= 128, and the add32
  // consumes those data bits: the extension must stay.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg A = F->addParam(Type::ArrayRef, "a");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  Reg Raw = B.arrayLoad(Type::I8, A, Zero, "raw");
  B.sextTo(Raw, 8, Raw);
  Reg Y = B.add32(Raw, Raw, "y");
  B.ret(Y);

  eliminateBasic(*F);
  EXPECT_EQ(countSext(*F), 1u);
}

TEST(EliminationTest, CrossRegisterExtensionBecomesCopy) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I8, "p"); // Canonical I8 parameter.
  IRBuilder B(F);
  B.startBlock("entry");
  Reg V = B.sext(8, P, "v"); // Redundant (p canonical), but cross-reg.
  Reg Y = B.add32(V, V, "y");
  B.ret(Y);

  EliminationStats S = eliminateBasic(*F);
  EXPECT_EQ(S.Eliminated, 1u);
  EXPECT_EQ(countSext(*F), 0u);
  // The value move survives as a copy.
  unsigned Copies = 0;
  for (const Instruction &I : *F->entryBlock())
    Copies += I.opcode() == Opcode::Copy ? 1 : 0;
  EXPECT_EQ(Copies, 1u);
}

TEST(EliminationTest, CallArgumentRequiresExtension) {
  auto M = std::make_unique<Module>("m");
  Function *Callee = M->createFunction("g", Type::I32);
  {
    Reg Q = Callee->addParam(Type::I32, "q");
    IRBuilder B(Callee);
    B.startBlock("entry");
    B.ret(Q);
  }
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg X = B.add32(P, P, "x");
  B.sextTo(X, 32, X); // Needed: the ABI passes arguments extended.
  Reg R = B.call(Callee, {X}, "r");
  B.ret(R);

  eliminateBasic(*F);
  EXPECT_EQ(countSext(*F), 1u);
}

TEST(EliminationTest, RetOfExtendedValueDischarges) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg X = B.sar32(P, B.constI32(3), "x"); // Sign extract: extended.
  B.sextTo(X, 32, X);
  B.ret(X);

  eliminateBasic(*F);
  EXPECT_EQ(countSext(*F), 0u);
}

TEST(FirstAlgorithmTest, EliminatesWhenNoDemand) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg X = B.add32(P, P, "x");
  B.sextTo(X, 32, X);
  Reg Y = B.and32(X, P, "y"); // W32 use: no demand.
  B.ret(Y);                   // I32 return demands Y, not X.

  unsigned Removed = runFirstAlgorithm(*F, TargetInfo::ia64());
  EXPECT_EQ(Removed, 1u);
}

TEST(FirstAlgorithmTest, KeepsExtensionDemandedByArrayIndex) {
  // The paper's first limitation: the backward-dataflow algorithm cannot
  // discharge subscript extensions.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg A = F->addParam(Type::ArrayRef, "a");
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg I = B.and32(P, B.constI32(7), "i");
  B.sextTo(I, 32, I);
  Reg V = B.arrayLoad(Type::I32, A, I, "v");
  B.ret(V);

  EXPECT_EQ(runFirstAlgorithm(*F, TargetInfo::ia64()), 0u);
  EXPECT_EQ(countSext(*F), 1u);
}

TEST(PipelineTest, StatsAccountPhases) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Len = B.constI32(16);
  Reg A = B.newArray(Type::I32, Len, "a");
  Reg Zero = B.constI32(0);
  Reg I = F->newReg(Type::I32, "i");
  B.copyTo(I, Zero);
  BasicBlock *Head = F->createBlock("head");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.jmp(Head);
  B.setBlock(Head);
  Reg C = B.cmp32(CmpPred::SLT, I, Len);
  B.br(C, Body, Exit);
  B.setBlock(Body);
  B.arrayStore(Type::I32, A, I, I);
  Reg One = B.constI32(1);
  B.binopTo(I, Opcode::Add, Width::W32, I, One);
  B.jmp(Head);
  B.setBlock(Exit);
  Reg W = F->newReg(Type::I64, "w");
  B.copyTo(W, I);
  B.ret(W);

  InstrumentedPipelineResult R =
      runInstrumentedPipeline(*M, PipelineConfig::forVariant(Variant::All));
  EXPECT_GT(R.Stats.value("conversion64", "sext_generated"), 0u);
  uint64_t DummiesAdded = R.Stats.value("dummy-insertion", "dummy_added");
  EXPECT_GT(DummiesAdded, 0u);
  EXPECT_EQ(DummiesAdded, R.Stats.value("elimination", "dummy_removed"));
  // Chain creation is timed inside the sign-extension passes' wall time.
  uint64_t TotalNanos = 0, SignExtNanos = 0;
  for (const PassTiming &T : R.Timings) {
    TotalNanos += T.WallNanos;
    if (T.Group == Pass::Group::SignExt)
      SignExtNanos += T.WallNanos;
  }
  EXPECT_GT(TotalNanos, 0u);
  EXPECT_LE(R.ChainCreationNanos, SignExtNanos);
  ASSERT_TRUE(moduleVerifies(*M, /*AllowDummies=*/false));
}

TEST(PipelineTest, Generic64WithoutWordComparesKeepsMore) {
  // Section 3's caveat: the bounds check (and every W32 compare) is only
  // extension-free because the target has 32-bit compares. On the
  // hypothetical generic64 target, compares become requiring uses and
  // the loop's extension survives.
  auto build = [] {
    auto M = std::make_unique<Module>("m");
    Function *F = M->createFunction("main", Type::I64);
    IRBuilder B(F);
    B.startBlock("entry");
    Reg Len = B.constI32(64);
    Reg A = B.newArray(Type::I32, Len, "a");
    Reg Zero = B.constI32(0);
    Reg I = F->newReg(Type::I32, "i");
    B.copyTo(I, Zero);
    Reg Acc = F->newReg(Type::I32, "acc");
    B.copyTo(Acc, Zero);
    BasicBlock *Head = F->createBlock("head");
    BasicBlock *Body = F->createBlock("body");
    BasicBlock *Exit = F->createBlock("exit");
    B.jmp(Head);
    B.setBlock(Head);
    // The loop condition also tests acc, a multiply result no range or
    // extendedness fact can discharge: on generic64 the W32 compare
    // itself demands a canonical register.
    Reg InRange = B.cmp32(CmpPred::SLT, I, Len);
    Reg Sentinel = B.constI32(0x5EED);
    Reg NotDone = B.cmp32(CmpPred::NE, Acc, Sentinel);
    Reg C = B.and32(InRange, NotDone);
    B.br(C, Body, Exit);
    B.setBlock(Body);
    Reg V = B.arrayLoad(Type::I32, A, I, "v");
    Reg Mixed = B.mul32(Acc, V, "mixed");
    B.copyTo(Acc, Mixed);
    Reg One = B.constI32(1);
    B.binopTo(I, Opcode::Add, Width::W32, I, One);
    B.jmp(Head);
    B.setBlock(Exit);
    Reg W = F->newReg(Type::I64, "w");
    B.copyTo(W, I);
    B.ret(W);
    return M;
  };

  auto IA64 = build();
  runInstrumentedPipeline(
      *IA64, PipelineConfig::forVariant(Variant::All, TargetInfo::ia64()));
  auto Generic = build();
  runInstrumentedPipeline(*Generic, PipelineConfig::forVariant(
                                        Variant::All, TargetInfo::generic64()));

  // The comparison operand (acc or i) needs extension on generic64 but
  // not on IA64: strictly more extensions survive.
  EXPECT_GT(countSext(*Generic->findFunction("main")),
            countSext(*IA64->findFunction("main")));

  // Both still compute the same value.
  InterpOptions Options;
  EXPECT_EQ(Interpreter(*IA64, Options).run("main").ReturnValue,
            Interpreter(*Generic, Options).run("main").ReturnValue);
}

TEST(PipelineTest, PPC64NeedsFewerExtensionsThanIA64AtBaseline) {
  // Implicit sign extension (lwa) removes the post-load extensions that
  // IA64 needs; the baseline static counts reflect it.
  auto build = [] {
    auto M = std::make_unique<Module>("m");
    Function *F = M->createFunction("main", Type::I64);
    IRBuilder B(F);
    B.startBlock("entry");
    Reg Len = B.constI32(8);
    Reg A = B.newArray(Type::I32, Len, "a");
    Reg Zero = B.constI32(0);
    Reg V = B.arrayLoad(Type::I32, A, Zero, "v");
    Reg W = F->newReg(Type::I64, "w");
    B.copyTo(W, V);
    B.ret(W);
    return M;
  };

  auto IA64 = build();
  runInstrumentedPipeline(
      *IA64, PipelineConfig::forVariant(Variant::Baseline, TargetInfo::ia64()));
  auto PPC = build();
  runInstrumentedPipeline(
      *PPC, PipelineConfig::forVariant(Variant::Baseline, TargetInfo::ppc64()));
  EXPECT_GT(countSext(*IA64->findFunction("main")),
            countSext(*PPC->findFunction("main")));
}

} // namespace
