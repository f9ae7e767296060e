//===- tests/ir_test.cpp - IR core unit tests ----------------------------------===//

#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

using namespace sxe;
using namespace sxe::test;

namespace {

TEST(TypeTest, Names) {
  EXPECT_STREQ(typeName(Type::I32), "i32");
  EXPECT_STREQ(typeName(Type::ArrayRef), "arrayref");
  EXPECT_STREQ(typeName(Type::U16), "u16");
}

TEST(TypeTest, Classification) {
  EXPECT_TRUE(isIntegerType(Type::I8));
  EXPECT_TRUE(isIntegerType(Type::U16));
  EXPECT_FALSE(isIntegerType(Type::F64));
  EXPECT_FALSE(isIntegerType(Type::ArrayRef));
  EXPECT_TRUE(isSubRegisterIntType(Type::I32));
  EXPECT_FALSE(isSubRegisterIntType(Type::I64));
  EXPECT_EQ(intTypeBits(Type::I16), 16u);
  EXPECT_EQ(elementSizeBytes(Type::F64), 8u);
}

TEST(OpcodeTest, Traits) {
  EXPECT_TRUE(opcodeInfo(Opcode::Br).IsTerminator);
  EXPECT_FALSE(opcodeInfo(Opcode::Add).IsTerminator);
  EXPECT_TRUE(opcodeInfo(Opcode::Add).IsCommutative);
  EXPECT_FALSE(opcodeInfo(Opcode::Sub).IsCommutative);
  EXPECT_TRUE(opcodeInfo(Opcode::Div).MayTrap);
  EXPECT_EQ(opcodeInfo(Opcode::ArrayStore).NumOperands, 3);
  EXPECT_EQ(opcodeInfo(Opcode::Call).NumOperands, -1);
  EXPECT_TRUE(isSextOpcode(Opcode::Sext16));
  EXPECT_FALSE(isSextOpcode(Opcode::Zext32));
  EXPECT_EQ(extensionBits(Opcode::Sext8), 8u);
  EXPECT_EQ(extensionBits(Opcode::Zext32), 32u);
}

TEST(OpcodeTest, PredicateAlgebra) {
  EXPECT_EQ(swapCmpPred(CmpPred::SLT), CmpPred::SGT);
  EXPECT_EQ(swapCmpPred(CmpPred::EQ), CmpPred::EQ);
  EXPECT_EQ(negateCmpPred(CmpPred::SLE), CmpPred::SGT);
  EXPECT_EQ(negateCmpPred(CmpPred::NE), CmpPred::EQ);
  EXPECT_EQ(negateCmpPred(CmpPred::ULT), CmpPred::UGE);
}

std::unique_ptr<Module> smallModule() {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg One = B.constI32(1);
  Reg Sum = B.add32(P, One, "sum");
  B.ret(Sum);
  return M;
}

TEST(IRBuilderTest, BuildsVerifiableFunction) {
  auto M = smallModule();
  ASSERT_TRUE(moduleVerifies(*M));
  Function *F = M->findFunction("f");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->numParams(), 1u);
  EXPECT_EQ(F->numBlocks(), 1u);
  EXPECT_EQ(F->countInstructions(), 3u);
}

TEST(IRBuilderTest, NarrowLoadsGetNarrowRegisters) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::Void);
  Reg A = F->addParam(Type::ArrayRef, "a");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  Reg ByteVal = B.arrayLoad(Type::I8, A, Zero);
  Reg ShortVal = B.arrayLoad(Type::I16, A, Zero);
  Reg CharVal = B.arrayLoad(Type::U16, A, Zero);
  Reg IntVal = B.arrayLoad(Type::I32, A, Zero);
  EXPECT_EQ(F->regType(ByteVal), Type::I8);
  EXPECT_EQ(F->regType(ShortVal), Type::I16);
  EXPECT_EQ(F->regType(CharVal), Type::U16);
  EXPECT_EQ(F->regType(IntVal), Type::I32);
  B.retVoid();
}

TEST(BasicBlockTest, InsertEraseKeepOrder) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::Void);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg C1 = B.constI32(1);
  Reg C2 = B.constI32(2);
  B.retVoid();
  (void)C1;
  (void)C2;

  BasicBlock *BB = F->entryBlock();
  EXPECT_EQ(BB->size(), 3u);

  Instruction &First = BB->front();
  Instruction *Extra = F->newInstruction(Opcode::ConstInt);
  Extra->setDest(F->newReg(Type::I32));
  Extra->setType(Type::I32);
  Extra->setIntValue(7);
  Instruction *Placed = BB->insertAfter(&First, Extra);
  EXPECT_EQ(BB->size(), 4u);

  // The inserted instruction is second.
  auto It = BB->begin();
  ++It;
  EXPECT_EQ(&*It, Placed);

  BB->erase(Placed);
  EXPECT_EQ(BB->size(), 3u);
}

TEST(ClonerTest, PreservesStructureAndIds) {
  auto M = smallModule();
  auto Clone = cloneModule(*M);

  Function *Original = M->findFunction("f");
  Function *Copied = Clone->findFunction("f");
  ASSERT_NE(Copied, nullptr);
  EXPECT_EQ(printFunction(*Original), printFunction(*Copied));

  // Instruction ids transfer (the profile key contract).
  auto OIt = Original->entryBlock()->begin();
  auto CIt = Copied->entryBlock()->begin();
  for (; OIt != Original->entryBlock()->end(); ++OIt, ++CIt)
    EXPECT_EQ(OIt->id(), CIt->id());
}

TEST(ClonerTest, RemapsCallTargets) {
  auto M = std::make_unique<Module>("m");
  Function *Callee = M->createFunction("callee", Type::I32);
  {
    Reg P = Callee->addParam(Type::I32, "p");
    IRBuilder B(Callee);
    B.startBlock("entry");
    B.ret(P);
  }
  Function *Caller = M->createFunction("caller", Type::I32);
  {
    IRBuilder B(Caller);
    B.startBlock("entry");
    Reg C = B.constI32(5);
    Reg R = B.call(Callee, {C});
    B.ret(R);
  }

  auto Clone = cloneModule(*M);
  const Function *ClonedCaller = Clone->findFunction("caller");
  const Function *ClonedCallee = Clone->findFunction("callee");
  for (const auto &BB : ClonedCaller->blocks())
    for (const Instruction &I : *BB)
      if (I.opcode() == Opcode::Call) {
        EXPECT_EQ(I.callee(), ClonedCallee);
      }
}

TEST(VerifierTest, CatchesMissingTerminator) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::Void);
  IRBuilder B(F);
  B.startBlock("entry");
  B.constI32(1); // No terminator.
  std::vector<std::string> Problems;
  EXPECT_FALSE(verifyModule(*M, Problems));
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems.front().find("terminator"), std::string::npos);
}

TEST(VerifierTest, CatchesOutOfRangeConstant) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::Void);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg C = B.constI32(1);
  B.retVoid();
  // Corrupt: i32 constant with an out-of-range payload.
  for (Instruction &I : *F->entryBlock())
    if (I.opcode() == Opcode::ConstInt)
      I.setIntValue(int64_t(1) << 40);
  (void)C;
  std::vector<std::string> Problems;
  EXPECT_FALSE(verifyModule(*M, Problems));
}

TEST(VerifierTest, DummyPolicy) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Instruction *Dummy = F->newInstruction(Opcode::JustExtended);
  Dummy->setDest(P);
  Dummy->addOperand(P);
  F->entryBlock()->append(Dummy);
  B.ret(P);

  std::vector<std::string> Problems;
  VerifierOptions Allow;
  Allow.AllowDummyExtends = true;
  EXPECT_TRUE(verifyModule(*M, Problems, Allow));
  VerifierOptions Forbid;
  Forbid.AllowDummyExtends = false;
  EXPECT_FALSE(verifyModule(*M, Problems, Forbid));
}

TEST(PrinterTest, RegisterNamesAreUniqueAndStable) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::Void);
  Reg A = F->newReg(Type::I32, "x");
  Reg B = F->newReg(Type::I32, "x"); // Duplicate declared name.
  EXPECT_NE(printableRegName(*F, A), printableRegName(*F, B));
}

TEST(InstructionTest, MorphToCopyKeepsIdentity) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg V = B.sext(8, P, "v");
  B.ret(V);

  Instruction *Ext = nullptr;
  for (Instruction &I : *F->entryBlock())
    if (I.isSext())
      Ext = &I;
  ASSERT_NE(Ext, nullptr);
  uint32_t Id = Ext->id();
  Ext->morphToCopy();
  EXPECT_EQ(Ext->opcode(), Opcode::Copy);
  EXPECT_EQ(Ext->id(), Id);
  EXPECT_EQ(Ext->operand(0), P);
  ASSERT_TRUE(moduleVerifies(*M));
}

/// Two-block fixture for the numbering/epoch tests.
std::unique_ptr<Module> makeTwoBlockFunction() {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg N = F->addParam(Type::I32, "n");
  IRBuilder B(F);
  BasicBlock *Entry = B.startBlock("entry");
  BasicBlock *Exit = F->createBlock("exit");
  Reg T = B.add32(N, B.constI32(1), "t");
  B.jmp(Exit);
  B.setBlock(Exit);
  B.ret(T);
  (void)Entry;
  return M;
}

TEST(NumberingTest, AssignsDenseLayoutOrder) {
  auto M = makeTwoBlockFunction();
  Function &F = *M->functions().front();

  const Function::Numbering &Numbers = F.numberInstructions();
  EXPECT_EQ(Numbers.NumBlocks, 2u);
  EXPECT_EQ(Numbers.NumInsts, F.countInstructions());

  uint32_t ExpectBlock = 0, ExpectInst = 0;
  for (const auto &BB : F.blocks()) {
    EXPECT_EQ(BB->num(), ExpectBlock++);
    for (const Instruction &I : *BB)
      EXPECT_EQ(I.num(), ExpectInst++);
  }
  EXPECT_EQ(ExpectInst, Numbers.NumInsts);
}

TEST(NumberingTest, CachedUntilMutationThenReassigned) {
  auto M = makeTwoBlockFunction();
  Function &F = *M->functions().front();

  F.numberInstructions();
  uint64_t Epoch = F.irEpoch();
  F.numberInstructions(); // Cached: no epoch movement, same numbers.
  EXPECT_EQ(F.irEpoch(), Epoch);

  // A new instruction reads Unnumbered until the next numbering.
  BasicBlock *Entry = F.entryBlock();
  Reg Tmp = F.newReg(Type::I32, "tmp");
  Instruction *Nop = F.newInstruction(Opcode::Copy);
  Nop->setDest(Tmp);
  Nop->addOperand(Tmp);
  Entry->insertBefore(&*Entry->begin(), Nop);
  EXPECT_EQ(Nop->num(), Instruction::Unnumbered);
  EXPECT_GT(F.irEpoch(), Epoch);

  const Function::Numbering &After = F.numberInstructions();
  EXPECT_EQ(Nop->num(), 0u) << "layout order: new head instruction is 0";
  EXPECT_EQ(After.NumInsts, F.countInstructions());
}

TEST(EpochTest, InstructionMutationsLeaveCfgEpochAlone) {
  auto M = makeTwoBlockFunction();
  Function &F = *M->functions().front();
  uint64_t Ir = F.irEpoch(), Cfg = F.cfgEpoch();

  BasicBlock *Entry = F.entryBlock();
  Instruction *First = &*Entry->begin();
  Reg Tmp = F.newReg(Type::I32, "tmp");
  Instruction *Nop = F.newInstruction(Opcode::Copy);
  Nop->setDest(Tmp);
  Nop->addOperand(Tmp);
  Entry->insertBefore(First, Nop);
  EXPECT_GT(F.irEpoch(), Ir);
  EXPECT_EQ(F.cfgEpoch(), Cfg) << "insert must not look like a CFG change";

  Ir = F.irEpoch();
  Entry->erase(Nop);
  EXPECT_GT(F.irEpoch(), Ir);
  EXPECT_EQ(F.cfgEpoch(), Cfg);
}

TEST(EpochTest, BlockMutationsBumpBothEpochs) {
  auto M = makeTwoBlockFunction();
  Function &F = *M->functions().front();
  uint64_t Ir = F.irEpoch(), Cfg = F.cfgEpoch();

  BasicBlock *BB = F.createBlock("extra");
  EXPECT_GT(F.irEpoch(), Ir);
  EXPECT_GT(F.cfgEpoch(), Cfg);

  Ir = F.irEpoch();
  Cfg = F.cfgEpoch();
  F.eraseBlock(BB);
  EXPECT_GT(F.irEpoch(), Ir);
  EXPECT_GT(F.cfgEpoch(), Cfg);
}

TEST(ArenaIRTest, InstructionsLiveInTheFunctionArena) {
  auto M = makeTwoBlockFunction();
  Function &F = *M->functions().front();
  EXPECT_GT(F.arena().bytesAllocated(), 0u);

  // Ids are insertion-assigned and survive unrelated erasures.
  BasicBlock *Entry = F.entryBlock();
  Instruction *First = &*Entry->begin();
  uint32_t FirstId = First->id();
  Reg Tmp = F.newReg(Type::I32, "tmp");
  Instruction *Nop = F.newInstruction(Opcode::Copy);
  Nop->setDest(Tmp);
  Nop->addOperand(Tmp);
  Entry->insertBefore(First, Nop);
  Entry->erase(Nop);
  EXPECT_EQ(First->id(), FirstId);
  ASSERT_TRUE(moduleVerifies(*M));
}

} // namespace
