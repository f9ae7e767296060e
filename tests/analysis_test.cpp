//===- tests/analysis_test.cpp - CFG/dominators/loops/chains tests --------------===//

#include "analysis/BlockFrequency.h"
#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "analysis/UseDefChains.h"
#include "ir/IRBuilder.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace sxe;

namespace {

/// Diamond with a loop around it:
/// entry -> head; head -> (body | exit); body -> (left | right) -> join ->
/// head.
struct LoopDiamond {
  std::unique_ptr<Module> M;
  Function *F;
  BasicBlock *Entry, *Head, *Body, *Left, *Right, *Join, *Exit;
  Reg I, N;

  LoopDiamond() {
    M = std::make_unique<Module>("m");
    F = M->createFunction("f", Type::I32);
    N = F->addParam(Type::I32, "n");
    IRBuilder B(F);
    Entry = B.startBlock("entry");
    Reg Zero = B.constI32(0);
    I = F->newReg(Type::I32, "i");
    B.copyTo(I, Zero);
    Head = F->createBlock("head");
    Body = F->createBlock("body");
    Left = F->createBlock("left");
    Right = F->createBlock("right");
    Join = F->createBlock("join");
    Exit = F->createBlock("exit");
    B.jmp(Head);
    B.setBlock(Head);
    Reg C = B.cmp32(CmpPred::SLT, I, N);
    B.br(C, Body, Exit);
    B.setBlock(Body);
    Reg One = B.constI32(1);
    Reg Odd = B.and32(I, One);
    Reg IsOdd = B.cmp32(CmpPred::NE, Odd, B.constI32(0));
    B.br(IsOdd, Left, Right);
    B.setBlock(Left);
    B.binopTo(I, Opcode::Add, Width::W32, I, One);
    B.jmp(Join);
    B.setBlock(Right);
    Reg Two = B.constI32(2);
    B.binopTo(I, Opcode::Add, Width::W32, I, Two);
    B.jmp(Join);
    B.setBlock(Join);
    B.jmp(Head);
    B.setBlock(Exit);
    B.ret(I);
  }
};

TEST(CFGTest, OrdersAndEdges) {
  LoopDiamond D;
  CFG Cfg(*D.F);

  EXPECT_EQ(Cfg.reversePostOrder().front(), D.Entry);
  EXPECT_TRUE(Cfg.isReachable(D.Exit));
  EXPECT_EQ(Cfg.successors(D.Body).size(), 2u);
  EXPECT_EQ(Cfg.predecessors(D.Join).size(), 2u);
  EXPECT_EQ(Cfg.predecessors(D.Head).size(), 2u); // entry + join.

  // RPO is topological over forward edges: head before body before join.
  EXPECT_LT(Cfg.rpoIndex(D.Head), Cfg.rpoIndex(D.Body));
  EXPECT_LT(Cfg.rpoIndex(D.Body), Cfg.rpoIndex(D.Join));
}

TEST(CFGTest, UnreachableBlockDetected) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::Void);
  IRBuilder B(F);
  B.startBlock("entry");
  B.retVoid();
  BasicBlock *Orphan = F->createBlock("orphan");
  B.setBlock(Orphan);
  B.retVoid();
  CFG Cfg(*F);
  EXPECT_FALSE(Cfg.isReachable(Orphan));
  EXPECT_EQ(Cfg.rpoIndex(Orphan), ~0u);
}

TEST(DominatorsTest, DiamondAndLoop) {
  LoopDiamond D;
  CFG Cfg(*D.F);
  Dominators Dom(Cfg);

  EXPECT_TRUE(Dom.dominates(D.Entry, D.Exit));
  EXPECT_TRUE(Dom.dominates(D.Head, D.Join));
  EXPECT_TRUE(Dom.dominates(D.Body, D.Left));
  EXPECT_FALSE(Dom.dominates(D.Left, D.Join));
  EXPECT_FALSE(Dom.dominates(D.Right, D.Join));
  EXPECT_EQ(Dom.immediateDominator(D.Join), D.Body);
  EXPECT_EQ(Dom.immediateDominator(D.Head), D.Entry);
  EXPECT_TRUE(Dom.dominates(D.Head, D.Head));
}

TEST(LoopInfoTest, FindsTheNaturalLoop) {
  LoopDiamond D;
  CFG Cfg(*D.F);
  Dominators Dom(Cfg);
  LoopInfo Loops(Cfg, Dom);

  ASSERT_TRUE(Loops.hasLoops());
  ASSERT_EQ(Loops.loops().size(), 1u);
  const Loop &L = *Loops.loops().front();
  EXPECT_EQ(L.Header, D.Head);
  EXPECT_TRUE(L.contains(D.Body));
  EXPECT_TRUE(L.contains(D.Left));
  EXPECT_TRUE(L.contains(D.Join));
  EXPECT_FALSE(L.contains(D.Entry));
  EXPECT_FALSE(L.contains(D.Exit));
  EXPECT_EQ(Loops.loopDepth(D.Body), 1u);
  EXPECT_EQ(Loops.loopDepth(D.Exit), 0u);
}

TEST(LoopInfoTest, NestedLoopsHaveDepths) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::Void);
  Reg N = F->addParam(Type::I32, "n");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  Reg I = F->newReg(Type::I32, "i");
  Reg J = F->newReg(Type::I32, "j");
  B.copyTo(I, Zero);
  BasicBlock *OuterHead = F->createBlock("oh");
  BasicBlock *InnerPre = F->createBlock("ip");
  BasicBlock *InnerHead = F->createBlock("ih");
  BasicBlock *InnerBody = F->createBlock("ib");
  BasicBlock *OuterLatch = F->createBlock("ol");
  BasicBlock *Exit = F->createBlock("exit");
  B.jmp(OuterHead);
  B.setBlock(OuterHead);
  Reg C1 = B.cmp32(CmpPred::SLT, I, N);
  B.br(C1, InnerPre, Exit);
  B.setBlock(InnerPre);
  B.copyTo(J, Zero);
  B.jmp(InnerHead);
  B.setBlock(InnerHead);
  Reg C2 = B.cmp32(CmpPred::SLT, J, N);
  B.br(C2, InnerBody, OuterLatch);
  B.setBlock(InnerBody);
  Reg One = B.constI32(1);
  B.binopTo(J, Opcode::Add, Width::W32, J, One);
  B.jmp(InnerHead);
  B.setBlock(OuterLatch);
  Reg One2 = B.constI32(1);
  B.binopTo(I, Opcode::Add, Width::W32, I, One2);
  B.jmp(OuterHead);
  B.setBlock(Exit);
  B.retVoid();

  CFG Cfg(*F);
  Dominators Dom(Cfg);
  LoopInfo Loops(Cfg, Dom);
  EXPECT_EQ(Loops.loops().size(), 2u);
  EXPECT_EQ(Loops.loopDepth(InnerBody), 2u);
  EXPECT_EQ(Loops.loopDepth(OuterLatch), 1u);
  EXPECT_EQ(Loops.loopDepth(Exit), 0u);
}

TEST(BlockFrequencyTest, LoopsAreHotterAndProfilesSkew) {
  LoopDiamond D;
  CFG Cfg(*D.F);
  Dominators Dom(Cfg);
  LoopInfo Loops(Cfg, Dom);

  BlockFrequency Static(Cfg, Loops, nullptr);
  EXPECT_GT(Static.frequency(D.Body), Static.frequency(D.Entry));
  EXPECT_GT(Static.frequency(D.Body), Static.frequency(D.Exit));
  // Without a profile, the two arms split 50/50.
  EXPECT_DOUBLE_EQ(Static.frequency(D.Left), Static.frequency(D.Right));

  // A profile that takes the left arm 90% of the time skews them.
  ProfileInfo Profile;
  const Instruction *Branch = D.Body->terminator();
  Profile.addBranchCounts(Branch, 90, 10);
  BlockFrequency Profiled(Cfg, Loops, &Profile);
  EXPECT_GT(Profiled.frequency(D.Left), Profiled.frequency(D.Right));
}

TEST(UseDefChainsTest, ReachingDefsThroughDiamond) {
  LoopDiamond D;
  CFG Cfg(*D.F);
  UseDefChains Chains(*D.F, Cfg);

  // The ret's operand (i) is reached by both arm definitions and the
  // entry copy, but not by the entry pseudo-def (copy dominates).
  const Instruction *Ret = D.Exit->terminator();
  const auto &Defs = Chains.defsOf(Ret, 0);
  EXPECT_EQ(Defs.size(), 3u);
  EXPECT_FALSE(Chains.entryDefReaches(Ret, 0));

  // The left-arm add's i operand is reached by entry copy and both arms
  // (around the loop).
  const Instruction *LeftAdd = nullptr;
  for (Instruction &I : *D.Left)
    if (I.opcode() == Opcode::Add)
      LeftAdd = &I;
  ASSERT_NE(LeftAdd, nullptr);
  EXPECT_EQ(Chains.defsOf(LeftAdd, 0).size(), 3u);
}

TEST(UseDefChainsTest, DefUsesAreInverse) {
  LoopDiamond D;
  CFG Cfg(*D.F);
  UseDefChains Chains(*D.F, Cfg);

  for (const auto &BB : D.F->blocks()) {
    for (Instruction &I : *BB) {
      for (unsigned Op = 0; Op < I.numOperands(); ++Op) {
        for (const Instruction *Def : Chains.defsOf(&I, Op)) {
          if (!Def)
            continue;
          const auto &Uses = Chains.usesOf(Def);
          bool Found = std::any_of(
              Uses.begin(), Uses.end(), [&](const UseRef &U) {
                return U.User == &I && U.OpIndex == Op;
              });
          EXPECT_TRUE(Found);
        }
      }
    }
  }
}

TEST(UseDefChainsTest, SpliceOutDefIsExact) {
  // x defined once, extended, then used twice: removing the extension
  // rewires both uses to the original definition.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg One = B.constI32(1);
  Reg X = B.add32(P, One, "x");
  Instruction *Ext = B.sextTo(X, 32, X);
  Reg U1 = B.add32(X, One, "u1");
  Reg U2 = B.add32(X, X, "u2");
  Reg Sum = B.add32(U1, U2);
  B.ret(Sum);

  CFG Cfg(*F);
  UseDefChains Chains(*F, Cfg);

  Instruction *XDef = nullptr;
  Instruction *U2Def = nullptr;
  for (Instruction &I : *F->entryBlock()) {
    if (I.hasDest() && I.dest() == X && I.opcode() == Opcode::Add)
      XDef = &I;
    if (I.hasDest() && I.dest() == U2)
      U2Def = &I;
  }
  ASSERT_NE(XDef, nullptr);
  ASSERT_NE(U2Def, nullptr);

  // Before: U2's operands are reached by the extension.
  EXPECT_EQ(Chains.defsOf(U2Def, 0), std::vector<Instruction *>{Ext});

  Chains.spliceOutDef(Ext);
  F->entryBlock()->erase(Ext);

  EXPECT_EQ(Chains.defsOf(U2Def, 0), std::vector<Instruction *>{XDef});
  EXPECT_EQ(Chains.defsOf(U2Def, 1), std::vector<Instruction *>{XDef});
  // And the DU side: XDef now reaches both operand uses of U2Def.
  unsigned Hits = 0;
  for (const UseRef &U : Chains.usesOf(XDef))
    Hits += U.User == U2Def ? 1 : 0;
  EXPECT_EQ(Hits, 2u);
}

} // namespace
