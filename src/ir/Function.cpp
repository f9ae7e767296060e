//===- ir/Function.cpp - Function ------------------------------------------===//

#include "ir/Function.h"

#include "support/Error.h"

using namespace sxe;

Reg Function::newReg(Type Ty, std::string RegName) {
  RegTypes.push_back(Ty);
  RegNames.push_back(std::move(RegName));
  return static_cast<Reg>(RegTypes.size() - 1);
}

Reg Function::addParam(Type Ty, std::string RegName) {
  if (NumParams != RegTypes.size())
    reportFatalError("parameters must be declared before other registers");
  ++NumParams;
  return newReg(Ty, std::move(RegName));
}

std::string Function::regName(Reg R) const {
  assert(R < RegTypes.size() && "register out of range");
  if (!RegNames[R].empty())
    return RegNames[R];
  return 'r' + std::to_string(R);
}

BasicBlock *Function::createBlock(std::string BlockName) {
  unsigned Id = static_cast<unsigned>(Blocks.size());
  Blocks.push_back(
      BlockPtr(IRArena.create<BasicBlock>(this, Id, std::move(BlockName))));
  noteCFGMutation();
  return Blocks.back().get();
}

BasicBlock *Function::findBlock(const std::string &BlockName) {
  for (const auto &BB : Blocks)
    if (BB->name() == BlockName)
      return BB.get();
  return nullptr;
}

void Function::eraseBlock(BasicBlock *BB) {
  if (BB == entryBlock())
    reportFatalError("cannot erase the entry block");
  for (auto It = Blocks.begin(), E = Blocks.end(); It != E; ++It) {
    if (It->get() == BB) {
      Blocks.erase(It);
      noteCFGMutation();
      return;
    }
  }
  reportFatalError("eraseBlock: block not in this function");
}

Instruction *Function::cloneInstruction(const Instruction &I) {
  Instruction *Copy = IRArena.create<Instruction>(I);
  Copy->Parent = nullptr;
  Copy->PrevInst = nullptr;
  Copy->NextInst = nullptr;
  Copy->Num = Instruction::Unnumbered;
  return Copy;
}

size_t Function::countInstructions() const {
  size_t Count = 0;
  for (const auto &BB : Blocks)
    Count += BB->size();
  return Count;
}

const Function::Numbering &Function::numberInstructions() {
  if (NumberedEpoch == IREpoch)
    return Numbers;
  uint32_t BlockNum = 0;
  uint32_t InstNum = 0;
  for (const auto &BB : Blocks) {
    BB->Num = BlockNum++;
    for (Instruction &I : *BB)
      I.Num = InstNum++;
  }
  Numbers.NumBlocks = BlockNum;
  Numbers.NumInsts = InstNum;
  NumberedEpoch = IREpoch;
  return Numbers;
}
