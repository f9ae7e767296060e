//===- tests/paper_examples_test.cpp - The paper's running examples -----------===//
//
// Every worked example in the paper is reconstructed in IR and the
// optimized output is checked against the result the paper derives:
//
//  - Figure 3 / footnote 1: the first algorithm eliminates (1), (5), (7)
//    and keeps (3), (9).
//  - Figures 7 and 8: the new algorithm leaves exactly one extension,
//    outside the loop (Figure 8(b)); without insertion one stays inside
//    the loop (Figure 8(a)).
//  - Figure 9: with order determination, the in-loop extension is
//    eliminated (Result 1).
//
//===-----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "pm/InstrumentedPipeline.h"
#include "sxe/Pipeline.h"
#include "target/StaticCounts.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

using namespace sxe;
using namespace sxe::test;

namespace {

/// Figure 7(a): the paper's running example.
///
///   int t = 0; int i = src[0];
///   do { i = i - 1; j = a[i]; j = j & 0x0fffffff; t += j; }
///   while (i > start);
///   return (double) t;
///
/// The caller passes `src` (a one-element array holding the initial i),
/// the data array `a`, and `start`.
std::unique_ptr<Module> buildFigure7() {
  auto M = std::make_unique<Module>("figure7");
  Function *F = M->createFunction("fig7", Type::F64);
  Reg Src = F->addParam(Type::ArrayRef, "src");
  Reg A = F->addParam(Type::ArrayRef, "a");
  Reg Start = F->addParam(Type::I32, "start");

  IRBuilder B(F);
  BasicBlock *Entry = B.startBlock("entry");
  Reg Zero = B.constI32(0, "zero");
  Reg I = B.arrayLoad(Type::I32, Src, Zero, "i");
  Reg T = B.copy(Zero, "t");
  Reg One = B.constI32(1, "one");
  Reg C = B.constI32(0x0FFFFFFF, "C");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.jmp(Loop);
  (void)Entry;

  B.setBlock(Loop);
  B.binopTo(I, Opcode::Sub, Width::W32, I, One);
  Reg J = B.arrayLoad(Type::I32, A, I, "j");
  B.binopTo(J, Opcode::And, Width::W32, J, C);
  B.binopTo(T, Opcode::Add, Width::W32, T, J);
  Reg Cond = B.cmp32(CmpPred::SGT, I, Start);
  B.br(Cond, Loop, Exit);

  B.setBlock(Exit);
  Reg D = B.i2d(T, "d");
  B.ret(D);
  return M;
}

/// Wraps buildFigure7 with a main() that allocates the arrays: a has 64
/// elements a[k] = k*3+1, src[0] = 40, start = 5.
std::unique_ptr<Module> buildFigure7WithMain() {
  auto M = buildFigure7();
  Function *Fig7 = M->findFunction("fig7");
  Function *Main = M->createFunction("main", Type::F64);
  IRBuilder B(Main);
  B.startBlock("entry");
  Reg Len = B.constI32(64);
  Reg A = B.newArray(Type::I32, Len, "a");
  Reg OneElem = B.constI32(1);
  Reg Src = B.newArray(Type::I32, OneElem, "src");
  Reg Zero = B.constI32(0);
  Reg Init = B.constI32(40);
  B.arrayStore(Type::I32, Src, Zero, Init);

  // for k in 0..63: a[k] = 3k+1
  Reg K = B.copy(Zero, "k");
  Reg Three = B.constI32(3);
  Reg One = B.constI32(1);
  BasicBlock *Fill = Main->createBlock("fill");
  BasicBlock *Call = Main->createBlock("call");
  B.jmp(Fill);
  B.setBlock(Fill);
  Reg V = B.mul32(K, Three, "v");
  B.binopTo(V, Opcode::Add, Width::W32, V, One);
  B.arrayStore(Type::I32, A, K, V);
  B.binopTo(K, Opcode::Add, Width::W32, K, One);
  Reg Cond = B.cmp32(CmpPred::SLT, K, Len);
  B.br(Cond, Fill, Call);

  B.setBlock(Call);
  Reg Start = B.constI32(5);
  Reg Result = Main->newReg(Type::F64, "result");
  B.callTo(Result, Fig7, {Src, A, Start});
  B.ret(Result);
  return M;
}

TEST(PaperExamples, Figure7NewAlgorithmLeavesOneExtendOutsideLoop) {
  auto M = buildFigure7WithMain();
  ASSERT_TRUE(moduleVerifies(*M));

  PipelineConfig Config = PipelineConfig::forVariant(Variant::All);
  runInstrumentedPipeline(*M, Config);
  ASSERT_TRUE(moduleVerifies(*M, /*AllowDummies=*/false));

  Function *F = M->findFunction("fig7");
  // Figure 8(b): the loop body holds no extension; exactly one sext32
  // survives, before the (double) conversion outside the loop.
  EXPECT_EQ(countSext(*F->findBlock("loop")), 0u)
      << printFunction(*F);
  EXPECT_EQ(countSext(*F->findBlock("exit")), 1u)
      << printFunction(*F);
  EXPECT_EQ(countSext(*F->findBlock("entry")), 0u)
      << printFunction(*F);
  EXPECT_EQ(countDummies(*F), 0u);
}

TEST(PaperExamples, Figure8aWithoutInsertionExtendStaysInLoop) {
  auto M = buildFigure7WithMain();
  PipelineConfig Config = PipelineConfig::forVariant(Variant::ArrayOrder);
  runInstrumentedPipeline(*M, Config);

  Function *F = M->findFunction("fig7");
  // Figure 8(a): without insertion, t's extension stays inside the loop.
  EXPECT_EQ(countSext(*F->findBlock("loop")), 1u) << printFunction(*F);
  EXPECT_EQ(countSext(*F->findBlock("exit")), 0u) << printFunction(*F);
}

TEST(PaperExamples, Figure3FirstAlgorithmKeepsArrayIndexExtension) {
  auto M = buildFigure7WithMain();
  PipelineConfig Config = PipelineConfig::forVariant(Variant::FirstAlgorithm);
  runInstrumentedPipeline(*M, Config);

  Function *F = M->findFunction("fig7");
  // Footnote 1: (3) for the subscript and (9) for t stay in the loop;
  // (1), (5), (7) go away.
  EXPECT_EQ(countSext(*F->findBlock("loop")), 2u) << printFunction(*F);
  EXPECT_EQ(countSext(*F->findBlock("entry")), 0u) << printFunction(*F);
}

TEST(PaperExamples, Figure7AllVariantsComputeTheSameResult) {
  auto Pristine = buildFigure7WithMain();

  // Oracle: Java-semantics execution of the unoptimized program.
  InterpOptions JavaOptions;
  JavaOptions.Semantics = ExecSemantics::Java;
  Interpreter Oracle(*Pristine, JavaOptions);
  ExecResult Expected = Oracle.run("main");
  ASSERT_EQ(Expected.Trap, TrapKind::None);

  for (Variant V : AllVariants) {
    auto Clone = cloneModule(*Pristine);
    PipelineConfig Config = PipelineConfig::forVariant(V);
    runInstrumentedPipeline(*Clone, Config);

    Interpreter Interp(*Clone, InterpOptions{});
    ExecResult Actual = Interp.run("main");
    EXPECT_EQ(Actual.Trap, TrapKind::None) << variantName(V);
    EXPECT_EQ(Actual.ReturnValue, Expected.ReturnValue) << variantName(V);
  }
}

TEST(PaperExamples, Figure7DynamicCountsShrinkAcrossVariants) {
  auto Pristine = buildFigure7WithMain();

  auto dynamicSext = [&](Variant V) {
    auto Clone = cloneModule(*Pristine);
    PipelineConfig Config = PipelineConfig::forVariant(V);
    runInstrumentedPipeline(*Clone, Config);
    Interpreter Interp(*Clone, InterpOptions{});
    ExecResult R = Interp.run("main");
    EXPECT_EQ(R.Trap, TrapKind::None) << variantName(V);
    return R.ExecutedSext32;
  };

  uint64_t Baseline = dynamicSext(Variant::Baseline);
  uint64_t First = dynamicSext(Variant::FirstAlgorithm);
  uint64_t Array = dynamicSext(Variant::Array);
  uint64_t All = dynamicSext(Variant::All);

  EXPECT_GT(Baseline, 0u);
  EXPECT_LT(First, Baseline);
  EXPECT_LT(Array, First);
  EXPECT_LE(All, Array);
  // Figure 8(b): only the one extension before (double)t remains, executed
  // once per call.
  EXPECT_EQ(All, 1u);
}

/// Figure 9(a):
///   i = j + k; i = extend(i);
///   do { i = i + 1; i = extend(i); a[i] = 0; } while (i < end);
TEST(PaperExamples, Figure9OrderDeterminationPrefersLoopExtension) {
  auto M = std::make_unique<Module>("figure9");
  Function *F = M->createFunction("fig9", Type::I32);
  Reg A = F->addParam(Type::ArrayRef, "a");
  Reg JP = F->addParam(Type::I32, "j");
  Reg KP = F->addParam(Type::I32, "k");
  Reg End = F->addParam(Type::I32, "end");

  IRBuilder B(F);
  B.startBlock("entry");
  Reg I = B.add32(JP, KP, "i");
  Reg One = B.constI32(1);
  Reg Zero = B.constI32(0);
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.jmp(Loop);

  B.setBlock(Loop);
  B.binopTo(I, Opcode::Add, Width::W32, I, One);
  B.arrayStore(Type::I32, A, I, Zero);
  Reg Cond = B.cmp32(CmpPred::SLT, I, End);
  B.br(Cond, Loop, Exit);

  B.setBlock(Exit);
  B.ret(Zero);

  PipelineConfig Config = PipelineConfig::forVariant(Variant::ArrayOrder);
  runInstrumentedPipeline(*M, Config);
  ASSERT_TRUE(moduleVerifies(*M, /*AllowDummies=*/false));

  // Result 1 (Figure 9(b)): the loop extension is gone, the entry one
  // stays.
  EXPECT_EQ(countSext(*F->findBlock("loop")), 0u) << printFunction(*F);
  EXPECT_EQ(countSext(*F->findBlock("entry")), 1u) << printFunction(*F);
}

TEST(PaperExamples, Figure7MachineOracleMatchesJavaOracle) {
  auto M = buildFigure7WithMain();
  InterpOptions Machine;
  InterpOptions Java;
  Java.Semantics = ExecSemantics::Java;

  // The unconverted 32-bit form is not generally executable with machine
  // semantics, but after baseline conversion it must match Java exactly.
  PipelineConfig Config = PipelineConfig::forVariant(Variant::Baseline);
  runInstrumentedPipeline(*M, Config);

  ExecResult RM = Interpreter(*M, Machine).run("main");
  ExecResult RJ = Interpreter(*M, Java).run("main");
  EXPECT_EQ(RM.Trap, TrapKind::None);
  EXPECT_EQ(RM.ReturnValue, RJ.ReturnValue);
}

} // namespace
