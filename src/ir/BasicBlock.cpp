//===- ir/BasicBlock.cpp - Basic block -------------------------------------===//

#include "ir/BasicBlock.h"

#include "ir/Function.h"
#include "support/Error.h"

using namespace sxe;

BasicBlock::~BasicBlock() {
  for (Instruction *I = Head; I;) {
    Instruction *Next = I->next();
    I->~Instruction();
    I = Next;
  }
  Head = Tail = nullptr;
  Count = 0;
}

Instruction *BasicBlock::link(Instruction *Inst, Instruction *Before,
                              Instruction *After) {
  assert(Inst->parent() == nullptr && "instruction already in a block");
  Inst->setParent(this);
  Inst->setId(Parent->nextInstructionId());
  Inst->Num = Instruction::Unnumbered;
  Inst->PrevInst = Before;
  Inst->NextInst = After;
  if (Before)
    Before->NextInst = Inst;
  else
    Head = Inst;
  if (After)
    After->PrevInst = Inst;
  else
    Tail = Inst;
  ++Count;
  if (Inst->isTerminator())
    Parent->noteCFGMutation();
  else
    Parent->noteIRMutation();
  return Inst;
}

Instruction *BasicBlock::append(Instruction *Inst) {
  return link(Inst, Tail, nullptr);
}

Instruction *BasicBlock::insertBefore(Instruction *Pos, Instruction *Inst) {
  assert(Pos && Pos->parent() == this &&
         "insertBefore position not in this block");
  return link(Inst, Pos->prev(), Pos);
}

Instruction *BasicBlock::insertAfter(Instruction *Pos, Instruction *Inst) {
  assert(Pos && Pos->parent() == this &&
         "insertAfter position not in this block");
  return link(Inst, Pos, Pos->next());
}

void BasicBlock::erase(Instruction *Inst) {
  if (!Inst || Inst->parent() != this)
    reportFatalError("instruction not found in its claimed parent block");
  bool WasTerminator = Inst->isTerminator();
  if (Inst->prev())
    Inst->PrevInst->NextInst = Inst->next();
  else
    Head = Inst->next();
  if (Inst->next())
    Inst->NextInst->PrevInst = Inst->prev();
  else
    Tail = Inst->prev();
  --Count;
  if (WasTerminator)
    Parent->noteCFGMutation();
  else
    Parent->noteIRMutation();
  Inst->~Instruction();
}
