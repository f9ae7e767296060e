//===- tests/simplifycfg_test.cpp - CFG cleanup tests ------------------------------===//

#include "analysis/AnalysisCache.h"
#include "interp/Interpreter.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "opt/SimplifyCFG.h"
#include "tests/TestHelpers.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace sxe;
using namespace sxe::test;

namespace {

/// Runs SimplifyCFG over \p F with a fresh analysis cache.
unsigned simplifyCFG(Function &F) {
  AnalysisCache A(F, TargetInfo::ia64());
  return runSimplifyCFG(A);
}

TEST(SimplifyCFGTest, ThreadsTrivialJumpChain) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  BasicBlock *Hop1 = F->createBlock("hop1");
  BasicBlock *Hop2 = F->createBlock("hop2");
  BasicBlock *End = F->createBlock("end");
  B.jmp(Hop1);
  B.setBlock(Hop1);
  B.jmp(Hop2);
  B.setBlock(Hop2);
  B.jmp(End);
  B.setBlock(End);
  B.ret(P);

  unsigned Removed = simplifyCFG(*F);
  EXPECT_GE(Removed, 2u);
  // Everything collapses into the entry block.
  EXPECT_EQ(F->numBlocks(), 1u);
  ASSERT_TRUE(moduleVerifies(*M));
}

TEST(SimplifyCFGTest, MergesSinglePredecessorSuccessor) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg One = B.constI32(1);
  BasicBlock *Tail = F->createBlock("tail");
  B.jmp(Tail);
  B.setBlock(Tail);
  Reg Sum = B.add32(P, One, "sum");
  B.ret(Sum);

  uint32_t SumId = 0;
  for (Instruction &I : *Tail)
    if (I.opcode() == Opcode::Add)
      SumId = I.id();

  simplifyCFG(*F);
  EXPECT_EQ(F->numBlocks(), 1u);
  // Instruction ids survive the merge (profile keys).
  bool Found = false;
  for (Instruction &I : *F->entryBlock())
    if (I.opcode() == Opcode::Add) {
      EXPECT_EQ(I.id(), SumId);
      Found = true;
    }
  EXPECT_TRUE(Found);
  ASSERT_TRUE(moduleVerifies(*M));
}

TEST(SimplifyCFGTest, KeepsLoopStructure) {
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

  simplifyCFG(*F);
  ASSERT_TRUE(moduleVerifies(*M));
  // The loop must survive (head has two predecessors, body loops back).
  EXPECT_GE(F->numBlocks(), 2u);
  InterpOptions Options;
  ExecResult R = Interpreter(*M, Options).run("f", {7});
  EXPECT_EQ(R.ReturnValue, 7u);
}

TEST(SimplifyCFGTest, RemovesUnreachableBlocks) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::Void);
  IRBuilder B(F);
  B.startBlock("entry");
  B.retVoid();
  BasicBlock *Orphan = F->createBlock("orphan");
  B.setBlock(Orphan);
  B.retVoid();

  EXPECT_EQ(simplifyCFG(*F), 1u);
  EXPECT_EQ(F->numBlocks(), 1u);
}

TEST(SimplifyCFGTest, PreservesWorkloadSemantics) {
  WorkloadParams Params;
  for (const char *Name : {"Huffman", "jess"}) {
    const Workload *W = findWorkload(Name);
    ASSERT_NE(W, nullptr);
    auto Pristine = W->Build(Params);
    auto Simplified = cloneModule(*Pristine);
    unsigned Removed = 0;
    for (const auto &F : Simplified->functions())
      Removed += simplifyCFG(*F);
    EXPECT_GT(Removed, 0u) << Name; // Structured builders leave joins.
    ASSERT_TRUE(moduleVerifies(*Simplified));

    InterpOptions Java;
    Java.Semantics = ExecSemantics::Java;
    EXPECT_EQ(Interpreter(*Simplified, Java).run("main").ReturnValue,
              Interpreter(*Pristine, Java).run("main").ReturnValue)
        << Name;
  }
}

} // namespace
