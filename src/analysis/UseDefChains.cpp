//===- analysis/UseDefChains.cpp - UD/DU chains -----------------------------===//

#include "analysis/UseDefChains.h"

#include "support/DenseBitset.h"
#include "support/Error.h"

#include <algorithm>

using namespace sxe;

UseDefChains::UseDefChains(Function &F, const CFG &Cfg) : F(F) {
  const Function::Numbering &Numbers = F.numberInstructions();

  // Operand-slot prefix sum and the defs/uses tables, over every
  // instruction (reachable or not) in layout order.
  OpStart.resize(Numbers.NumInsts + 1);
  std::vector<Instruction *> DefInsts;
  std::vector<unsigned> DefIdOf(Numbers.NumInsts, ~0u);
  {
    unsigned Slot = 0;
    for (const auto &BB : F.blocks()) {
      for (Instruction &I : *BB) {
        OpStart[I.num()] = Slot;
        Slot += I.numOperands();
        if (I.hasDest()) {
          DefIdOf[I.num()] = static_cast<unsigned>(DefInsts.size());
          DefInsts.push_back(&I);
        }
      }
    }
    OpStart[Numbers.NumInsts] = Slot;
    UseDefs.resize(Slot);
    DefUses.resize(Numbers.NumInsts);
  }

  const size_t NumInstDefs = DefInsts.size();
  const size_t NumDefs = NumInstDefs + F.numRegs();

  auto defReg = [&](size_t DefId) -> Reg {
    if (DefId < NumInstDefs)
      return DefInsts[DefId]->dest();
    return static_cast<Reg>(DefId - NumInstDefs);
  };

  // Per-register definition lists, for KILL sets.
  std::vector<std::vector<unsigned>> DefsOfReg(F.numRegs());
  for (size_t DefId = 0; DefId < NumDefs; ++DefId)
    DefsOfReg[defReg(DefId)].push_back(static_cast<unsigned>(DefId));

  // GEN/KILL per reachable block, indexed by RPO position.
  const auto &RPO = Cfg.reversePostOrder();

  std::vector<DenseBitset> Gen(RPO.size(), DenseBitset(NumDefs));
  std::vector<DenseBitset> Kill(RPO.size(), DenseBitset(NumDefs));
  std::vector<DenseBitset> In(RPO.size(), DenseBitset(NumDefs));
  std::vector<DenseBitset> Out(RPO.size(), DenseBitset(NumDefs));

  for (unsigned Index = 0; Index < RPO.size(); ++Index) {
    for (Instruction &I : *RPO[Index]) {
      if (!I.hasDest())
        continue;
      unsigned DefId = DefIdOf[I.num()];
      Reg R = I.dest();
      for (unsigned Other : DefsOfReg[R]) {
        Kill[Index].set(Other);
        Gen[Index].reset(Other);
      }
      Kill[Index].reset(DefId);
      Gen[Index].set(DefId);
    }
  }

  // The entry block receives the entry pseudo-definitions — derived from
  // the CFG's entry, which heads the RPO by construction (every traversal
  // starts there); the assert keeps a future RPO change from silently
  // corrupting the seeding.
  const unsigned EntryIndex = Cfg.rpoIndex(Cfg.entry());
  assert(EntryIndex == 0 && "CFG entry block must head the RPO");
  for (Reg R = 0; R < F.numRegs(); ++R)
    In[EntryIndex].set(NumInstDefs + R);

  // Reaching-definitions fixpoint: an ascending-RPO sweep over dirty
  // blocks only. A block re-enters the worklist when a predecessor's Out
  // grows, so iteration count scales with changed blocks, not total
  // blocks. The transfer functions are monotone, so this converges to the
  // same least fixpoint as the classic all-blocks repeat-until-stable loop.
  std::vector<char> Dirty(RPO.size(), 1);
  DenseBitset NewOut(NumDefs);
  bool Pending = !RPO.empty();
  while (Pending) {
    Pending = false;
    for (unsigned Index = 0; Index < RPO.size(); ++Index) {
      if (!Dirty[Index])
        continue;
      Dirty[Index] = 0;
      if (Index != EntryIndex) {
        for (const BasicBlock *Pred : Cfg.predecessors(RPO[Index])) {
          unsigned PredIndex = Cfg.rpoIndex(Pred);
          if (PredIndex == ~0u)
            continue; // Unreachable predecessor.
          In[Index].unionWith(Out[PredIndex]);
        }
      }
      NewOut = In[Index]; // Out = (In - Kill) | Gen.
      NewOut.subtract(Kill[Index]);
      NewOut.unionWith(Gen[Index]);
      if (Out[Index].unionWith(NewOut)) {
        for (const BasicBlock *Succ : Cfg.successors(RPO[Index])) {
          unsigned SuccIndex = Cfg.rpoIndex(Succ);
          if (!Dirty[SuccIndex]) {
            Dirty[SuccIndex] = 1;
            // Blocks later in this sweep are picked up without another
            // pass; a marked block at or before Index needs one.
            if (SuccIndex <= Index)
              Pending = true;
          }
        }
      }
    }
  }

  // Final forward walk: record reaching defs at each operand use.
  std::vector<std::vector<Instruction *>> Current(F.numRegs());
  for (unsigned Index = 0; Index < RPO.size(); ++Index) {
    for (Reg R = 0; R < F.numRegs(); ++R)
      Current[R].clear();
    In[Index].forEach([&](size_t DefId) {
      Reg R = defReg(DefId);
      Instruction *D =
          DefId < NumInstDefs ? DefInsts[DefId] : nullptr; // null = entry.
      Current[R].push_back(D);
    });
    // Deterministic order: entry def first, then by instruction id.
    for (Reg R = 0; R < F.numRegs(); ++R)
      std::sort(Current[R].begin(), Current[R].end(),
                [](const Instruction *A, const Instruction *B) {
                  if (!A || !B)
                    return A == nullptr && B != nullptr;
                  return A->id() < B->id();
                });

    for (Instruction &I : *RPO[Index]) {
      unsigned Slot = OpStart[I.num()];
      for (unsigned OpIndex = 0; OpIndex < I.numOperands();
           ++OpIndex, ++Slot) {
        Reg R = I.operand(OpIndex);
        UseDefs[Slot] = Current[R];
        for (Instruction *D : Current[R]) {
          if (!D)
            continue;
          DefUses[D->num()].push_back(UseRef{&I, OpIndex});
        }
      }
      if (I.hasDest()) {
        Current[I.dest()].clear();
        Current[I.dest()].push_back(&I);
      }
    }
  }
}

std::vector<Instruction *> &
UseDefChains::mutableDefsOf(const Instruction *User, unsigned OpIndex) {
  unsigned Slot = slotOf(User, OpIndex);
  if (Slot == ~0u)
    reportFatalError("mutableDefsOf: operand unknown to this UD snapshot");
  return UseDefs[Slot];
}

bool UseDefChains::entryDefReaches(const Instruction *User,
                                   unsigned OpIndex) const {
  const auto &Defs = defsOf(User, OpIndex);
  return std::find(Defs.begin(), Defs.end(), nullptr) != Defs.end();
}

void UseDefChains::spliceOutDef(Instruction *Removed) {
  assert(Removed->hasDest() && Removed->numOperands() >= 1 &&
         "spliceOutDef requires a pass-through definition");

  // The definitions that reached Removed's source operand, minus Removed
  // itself (it can reach its own operand around a loop).
  std::vector<Instruction *> Inherited = defsOf(Removed, 0);
  Inherited.erase(
      std::remove(Inherited.begin(), Inherited.end(), Removed),
      Inherited.end());

  // Rewire every use Removed reached.
  std::vector<UseRef> Uses = usesOf(Removed);
  for (const UseRef &Use : Uses) {
    if (Use.User == Removed)
      continue; // Self-use dies with the instruction.
    auto &Defs = mutableDefsOf(Use.User, Use.OpIndex);
    Defs.erase(std::remove(Defs.begin(), Defs.end(), Removed), Defs.end());
    for (Instruction *D : Inherited) {
      if (std::find(Defs.begin(), Defs.end(), D) != Defs.end())
        continue;
      Defs.push_back(D);
      if (D) {
        auto &DUses = DefUses[D->num()];
        if (std::find(DUses.begin(), DUses.end(), Use) == DUses.end())
          DUses.push_back(Use);
      }
    }
  }

  forgetInstruction(Removed);
}

void UseDefChains::forgetInstruction(Instruction *I) {
  // Unregister I's operand uses from the DU chains of their defs.
  for (unsigned OpIndex = 0; OpIndex < I->numOperands(); ++OpIndex) {
    unsigned Slot = slotOf(I, OpIndex);
    if (Slot == ~0u)
      continue;
    for (Instruction *D : UseDefs[Slot]) {
      if (!D)
        continue;
      auto &DUses = DefUses[D->num()];
      DUses.erase(std::remove(DUses.begin(), DUses.end(),
                              UseRef{I, OpIndex}),
                  DUses.end());
    }
    UseDefs[Slot].clear();
  }
  if (I->num() < DefUses.size())
    DefUses[I->num()].clear();
}
