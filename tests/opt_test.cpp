//===- tests/opt_test.cpp - General optimization tests ---------------------------===//

#include "analysis/AnalysisCache.h"
#include "interp/Interpreter.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "opt/DeadCodeElim.h"
#include "opt/ExtensionPRE.h"
#include "opt/GeneralOpts.h"
#include "opt/LocalOpts.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

using namespace sxe;
using namespace sxe::test;

namespace {

unsigned countOpcode(const Function &F, Opcode Op) {
  unsigned Count = 0;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : *BB)
      Count += I.opcode() == Op ? 1 : 0;
  return Count;
}

// The step-2 passes read their analyses and target from an AnalysisCache;
// each helper gives one run a fresh IA64 cache.
unsigned dce(Function &F) {
  AnalysisCache A(F, TargetInfo::ia64());
  return runDeadCodeElim(A);
}

unsigned extensionPRE(Function &F) {
  AnalysisCache A(F, TargetInfo::ia64());
  return runExtensionPRE(A);
}

unsigned generalOpts(Function &F) {
  AnalysisCache A(F, TargetInfo::ia64());
  return runGeneralOpts(A);
}

TEST(LocalOptsTest, FoldsExtensionOfConstant) {
  // "when a constant is propagated as the source operand of a sign
  // extension, the sign extension will be changed to a copy instruction
  // by constant folding" — ours folds it into a constant outright.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg C = B.constI32(-7);
  Reg X = F->newReg(Type::I32, "x");
  B.copyTo(X, C);
  B.sextTo(X, 32, X);
  B.ret(X);

  runLocalOpts(*F);
  EXPECT_EQ(countSext(*F), 0u);
  ASSERT_TRUE(moduleVerifies(*M));
}

TEST(LocalOptsTest, RefusesNonCanonicalFold) {
  // 0x7fffffff + 1 at machine level produces +2^31, which is NOT a valid
  // i32 register image: the fold must not happen.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.constI32(INT32_MAX);
  Reg One = B.constI32(1);
  Reg Sum = B.add32(A, One, "sum");
  B.ret(Sum);

  runLocalOpts(*F);
  EXPECT_EQ(countOpcode(*F, Opcode::Add), 1u); // Still an add.
}

TEST(LocalOptsTest, FoldsCanonicalArithmetic) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.constI32(6);
  Reg Bv = B.constI32(7);
  Reg Prod = B.mul32(A, Bv, "prod");
  B.ret(Prod);

  runLocalOpts(*F);
  EXPECT_EQ(countOpcode(*F, Opcode::Mul), 0u);
  Interpreter Interp(*M, InterpOptions{});
  // Constant-folded function still computes 42 (run through a main-like
  // direct call).
  EXPECT_EQ(Interp.run("f").ReturnValue, 42u);
}

TEST(LocalOptsTest, PropagatesCopiesWithinBlock) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg X = B.copy(P, "x");
  Reg Y = B.add32(X, X, "y");
  B.ret(Y);

  runLocalOpts(*F);
  // The add now reads the original parameter.
  for (const Instruction &I : *F->entryBlock())
    if (I.opcode() == Opcode::Add) {
      EXPECT_EQ(I.operand(0), P);
      EXPECT_EQ(I.operand(1), P);
    }
}

TEST(DeadCodeElimTest, RemovesDeadPureDefs) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Dead = B.add32(P, P, "dead");
  Reg DeadToo = B.xor32(Dead, P, "deadToo");
  B.ret(P);
  (void)DeadToo;

  unsigned Removed = dce(*F);
  EXPECT_EQ(Removed, 2u);
  EXPECT_EQ(F->countInstructions(), 1u);
}

TEST(DeadCodeElimTest, KeepsTrappingInstructions) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  Reg Q = F->addParam(Type::I32, "q");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Dead = B.div32(P, Q, "dead"); // May trap: must stay.
  B.ret(P);
  (void)Dead;

  dce(*F);
  EXPECT_EQ(countOpcode(*F, Opcode::Div), 1u);
}

TEST(DeadCodeElimTest, KeepsLiveLoopValues) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg N = F->addParam(Type::I32, "n");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  Reg I = F->newReg(Type::I32, "i");
  B.copyTo(I, Zero);
  BasicBlock *Head = F->createBlock("head");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.jmp(Head);
  B.setBlock(Head);
  Reg C = B.cmp32(CmpPred::SLT, I, N);
  B.br(C, Body, Exit);
  B.setBlock(Body);
  Reg One = B.constI32(1);
  B.binopTo(I, Opcode::Add, Width::W32, I, One);
  B.jmp(Head);
  B.setBlock(Exit);
  B.ret(I);

  size_t Before = F->countInstructions();
  dce(*F);
  EXPECT_EQ(F->countInstructions(), Before);
}

TEST(ExtensionPRETest, RemovesBackToBackExtensions) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg X = B.add32(P, P, "x");
  B.sextTo(X, 32, X);
  B.sextTo(X, 32, X); // Redundant on every path.
  B.ret(X);

  unsigned Changed = extensionPRE(*F);
  EXPECT_GE(Changed, 1u);
  EXPECT_EQ(countSext(*F), 1u);
}

TEST(ExtensionPRETest, RemovesExtensionAfterKnownExtendedDef) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg C = B.cmp32(CmpPred::SLT, P, P, "c"); // 0/1: canonical.
  B.sextTo(C, 32, C);
  B.ret(C);

  extensionPRE(*F);
  EXPECT_EQ(countSext(*F), 0u);
}

TEST(ExtensionPRETest, HoistsLoopInvariantExtension) {
  // x is defined before the loop; its extension inside the loop is the
  // only in-loop definition and moves to the preheader.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  Reg N = F->addParam(Type::I32, "n");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg X = B.add32(P, P, "x");
  Reg Zero = B.constI32(0);
  Reg I = F->newReg(Type::I32, "i");
  B.copyTo(I, Zero);
  BasicBlock *Pre = F->createBlock("pre");
  BasicBlock *Head = F->createBlock("head");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.jmp(Pre);
  B.setBlock(Pre);
  B.jmp(Head);
  B.setBlock(Head);
  Reg C = B.cmp32(CmpPred::SLT, I, N);
  B.br(C, Body, Exit);
  B.setBlock(Body);
  B.sextTo(X, 32, X); // Loop-invariant extension.
  Reg One = B.constI32(1);
  B.binopTo(I, Opcode::Add, Width::W32, I, One);
  B.jmp(Head);
  B.setBlock(Exit);
  B.ret(X);

  extensionPRE(*F);
  EXPECT_EQ(countSext(*Body), 0u);
  EXPECT_EQ(countSext(*Pre), 1u);
}

TEST(GeneralOptsTest, PreservesSemantics) {
  // Build a small program, run the step-2 bundle, and compare results.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Len = B.constI32(32);
  Reg Arr = B.newArray(Type::I32, Len, "arr");
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
  Reg Seven = B.constI32(7);
  Reg V = B.mul32(I, Seven, "v");
  B.arrayStore(Type::I32, Arr, I, V);
  Reg One = B.constI32(1);
  B.binopTo(I, Opcode::Add, Width::W32, I, One);
  B.jmp(Head);
  B.setBlock(Exit);
  Reg Last = B.constI32(31);
  Reg Final = B.arrayLoad(Type::I32, Arr, Last, "final");
  Reg Wide = F->newReg(Type::I64, "wide");
  B.copyTo(Wide, Final);
  B.ret(Wide);

  auto Reference = cloneModule(*M);
  generalOpts(*M->findFunction("main"));
  ASSERT_TRUE(moduleVerifies(*M));

  InterpOptions Java;
  Java.Semantics = ExecSemantics::Java;
  EXPECT_EQ(Interpreter(*M, Java).run("main").ReturnValue,
            Interpreter(*Reference, Java).run("main").ReturnValue);
}

} // namespace
