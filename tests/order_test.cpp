//===- tests/order_test.cpp - Order determination unit tests --------------------===//

#include "analysis/AnalysisCache.h"
#include "analysis/ProfileInfo.h"
#include "ir/IRBuilder.h"
#include "sxe/Conversion64.h"
#include "sxe/OrderDetermination.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace sxe;

namespace {

/// entry -> loop(loop body with one extension) -> exit(one extension).
struct OrderFixture {
  std::unique_ptr<Module> M;
  Function *F;
  Instruction *LoopExt = nullptr;
  Instruction *ExitExt = nullptr;
  Instruction *EntryExt = nullptr;

  OrderFixture() {
    M = std::make_unique<Module>("m");
    F = M->createFunction("f", Type::F64);
    Reg N = F->addParam(Type::I32, "n");
    IRBuilder B(F);
    B.startBlock("entry");
    Reg Zero = B.constI32(0);
    Reg X = B.add32(N, N, "x");
    EntryExt = B.sextTo(X, 32, X);
    Reg I = F->newReg(Type::I32, "i");
    B.copyTo(I, Zero);
    Reg T = F->newReg(Type::I32, "t");
    B.copyTo(T, Zero);
    BasicBlock *Head = F->createBlock("head");
    BasicBlock *Body = F->createBlock("body");
    BasicBlock *Exit = F->createBlock("exit");
    B.jmp(Head);
    B.setBlock(Head);
    Reg C = B.cmp32(CmpPred::SLT, I, N);
    B.br(C, Body, Exit);
    B.setBlock(Body);
    B.binopTo(T, Opcode::Add, Width::W32, T, X);
    LoopExt = B.sextTo(T, 32, T);
    Reg One = B.constI32(1);
    B.binopTo(I, Opcode::Add, Width::W32, I, One);
    B.jmp(Head);
    B.setBlock(Exit);
    ExitExt = B.sextTo(T, 32, T);
    Reg D = B.i2d(T, "d");
    B.ret(D);
  }
};

size_t positionOf(const std::vector<Instruction *> &Order,
                  const Instruction *Ext) {
  auto It = std::find(Order.begin(), Order.end(), Ext);
  EXPECT_NE(It, Order.end());
  return static_cast<size_t>(It - Order.begin());
}

TEST(OrderDeterminationTest, HotBlocksComeFirst) {
  OrderFixture Fx;
  AnalysisCache A(*Fx.F, TargetInfo::ia64());
  std::vector<Instruction *> Order = extensionsByFrequency(A);
  ASSERT_EQ(Order.size(), 3u);
  // Loop body (depth 1) before entry (1.0) before exit (0.5).
  EXPECT_LT(positionOf(Order, Fx.LoopExt), positionOf(Order, Fx.EntryExt));
  EXPECT_LT(positionOf(Order, Fx.EntryExt), positionOf(Order, Fx.ExitExt));
}

TEST(OrderDeterminationTest, InsertedFirstWithinATier) {
  OrderFixture Fx;
  // Pretend the loop has a second, inserted extension after the original.
  Instruction *Ext = Fx.F->newInstruction(Opcode::Sext32);
  Ext->setDest(Fx.LoopExt->dest());
  Ext->addOperand(Fx.LoopExt->dest());
  Instruction *InsertedExt =
      Fx.LoopExt->parent()->insertAfter(Fx.LoopExt, Ext);

  std::unordered_set<Instruction *> Inserted = {InsertedExt};
  AnalysisCache A(*Fx.F, TargetInfo::ia64());
  std::vector<Instruction *> Order = extensionsByFrequency(A, &Inserted);
  // The inserted one is analyzed before the original despite appearing
  // later in program order.
  EXPECT_LT(positionOf(Order, InsertedExt), positionOf(Order, Fx.LoopExt));
  // But still after nothing from hotter tiers, and before colder tiers.
  EXPECT_LT(positionOf(Order, Fx.LoopExt), positionOf(Order, Fx.ExitExt));
}

TEST(OrderDeterminationTest, ReverseDFSVisitsLatestFirst) {
  OrderFixture Fx;
  AnalysisCache A(*Fx.F, TargetInfo::ia64());
  std::vector<Instruction *> Order = extensionsInReverseDFS(A);
  ASSERT_EQ(Order.size(), 3u);
  // Entry is visited first by the DFS, so its extension comes LAST.
  EXPECT_EQ(Order.back(), Fx.EntryExt);
}

TEST(OrderDeterminationTest, ProfileSkewsTheTiers) {
  // Two sibling arms; the profile makes the 'rare' arm hot.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::F64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg C = B.cmp32(CmpPred::SLT, P, B.constI32(0));
  BasicBlock *Left = F->createBlock("left");
  BasicBlock *Right = F->createBlock("right");
  BasicBlock *Join = F->createBlock("join");
  Instruction *Branch = B.br(C, Left, Right);
  B.setBlock(Left);
  Reg X = B.add32(P, P, "x");
  Instruction *LeftExt = B.sextTo(X, 32, X);
  B.jmp(Join);
  B.setBlock(Right);
  Reg Y = B.add32(P, P, "y");
  Instruction *RightExt = B.sextTo(Y, 32, Y);
  B.jmp(Join);
  B.setBlock(Join);
  Reg D = B.i2d(P, "d");
  B.ret(D);

  // Without a profile, the 50/50 estimate ties and reverse post-order
  // breaks the tie (the RPO of this diamond visits 'right' first).
  AnalysisCache StaticCache(*F, TargetInfo::ia64());
  std::vector<Instruction *> Static = extensionsByFrequency(StaticCache);
  EXPECT_LT(positionOf(Static, RightExt), positionOf(Static, LeftExt));

  // A profile that takes 'left' 95% of the time flips the order.
  ProfileInfo Profile;
  Profile.addBranchCounts(Branch, 95, 5); // Left is hot.
  AnalysisCache ProfiledCache(*F, TargetInfo::ia64(), &Profile);
  std::vector<Instruction *> Order = extensionsByFrequency(ProfiledCache);
  EXPECT_LT(positionOf(Order, LeftExt), positionOf(Order, RightExt));
}

} // namespace
