//===- ir/Cloner.cpp - Deep copies of IR -----------------------------------===//

#include "ir/Cloner.h"

#include "support/Error.h"

#include <unordered_map>

using namespace sxe;

namespace {

void cloneFunctionBody(const Function &Src, Function &Dst,
                       const std::unordered_map<const Function *, Function *>
                           &FunctionMap) {
  // Registers: parameters first, then locals, preserving indices.
  for (Reg R = 0; R < Src.numRegs(); ++R) {
    std::string Name = Src.regName(R);
    if (Name == 'r' + std::to_string(R))
      Name.clear(); // Auto-generated; let the copy regenerate it.
    if (R < Src.numParams())
      Dst.addParam(Src.regType(R), std::move(Name));
    else
      Dst.newReg(Src.regType(R), std::move(Name));
  }

  // Blocks in layout order.
  std::unordered_map<const BasicBlock *, BasicBlock *> BlockMap;
  for (const auto &BB : Src.blocks())
    BlockMap[BB.get()] = Dst.createBlock(BB->name());

  for (const auto &BB : Src.blocks()) {
    BasicBlock *NewBB = BlockMap[BB.get()];
    for (const Instruction &I : *BB) {
      Instruction *NewInst = Dst.newInstruction(I.opcode());
      NewInst->setWidth(I.width());
      NewInst->setType(I.type());
      NewInst->setPred(I.pred());
      NewInst->setDest(I.dest());
      NewInst->setIntValue(I.intValue());
      NewInst->setFloatValue(I.floatValue());
      for (Reg Operand : I.operands())
        NewInst->addOperand(Operand);
      for (unsigned Index = 0; Index < I.numSuccessors(); ++Index) {
        auto It = BlockMap.find(I.successor(Index));
        if (It == BlockMap.end())
          reportFatalError("cloneModule: dangling successor");
        NewInst->setSuccessor(Index, It->second);
      }
      if (I.callee()) {
        auto It = FunctionMap.find(I.callee());
        if (It == FunctionMap.end())
          reportFatalError("cloneModule: call target outside the module");
        NewInst->setCallee(It->second);
      }
      Instruction *Placed = NewBB->append(NewInst);
      // Preserve the original id so profile data keyed by (function,
      // instruction id) carries over to every clone.
      Placed->setId(I.id());
      Dst.reserveInstructionIds(I.id() + 1);
    }
  }
}

} // namespace

std::unique_ptr<Module> sxe::cloneModule(const Module &M) {
  auto NewModule = std::make_unique<Module>(M.name());

  std::unordered_map<const Function *, Function *> FunctionMap;
  for (const auto &F : M.functions())
    FunctionMap[F.get()] =
        NewModule->createFunction(F->name(), F->returnType());

  for (const auto &F : M.functions())
    cloneFunctionBody(*F, *FunctionMap[F.get()], FunctionMap);

  return NewModule;
}
