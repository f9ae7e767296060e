//===- opt/ExtensionPRE.cpp - PRE-style redundancy removal for extends -------===//

#include "opt/ExtensionPRE.h"

#include "analysis/AnalysisCache.h"
#include "support/DenseBitset.h"
#include "sxe/ExtensionFacts.h"

#include <unordered_map>
#include <vector>

using namespace sxe;

namespace {

/// Returns true if \p I is an `r = convN r` re-canonicalization of its
/// own register with the register's canonical conversion (sextN for
/// signed types, zext16 for chars). A conversion of a full-width register
/// is a real narrowing and never canonicalizing.
bool isCanonicalizingExtend(const Function &F, const Instruction &I) {
  if (!I.isConversion() || !I.hasDest() || I.numOperands() != 1)
    return false;
  if (I.dest() != I.operand(0))
    return false;
  return canonicalRegBits(F, I.dest()) != 0 &&
         I.opcode() == canonicalConversionOpcode(F, I.dest());
}

/// Transfer of one instruction over the "canonically extended" facts.
void applyTransfer(const Function &F, const TargetInfo &Target,
                   const Instruction &I, DenseBitset &Facts) {
  if (!I.hasDest())
    return;
  Reg Dest = I.dest();
  CanonicalExt CE = canonicalRegExt(F, Dest);
  if (CE.Bits == 0) {
    Facts.set(Dest); // Never needs a conversion: trivially canonical.
    return;
  }
  if (isCanonicalizingExtend(F, I) ||
      defKnownExtendedStructural(F, I, Target, CE.Kind, CE.Bits)) {
    Facts.set(Dest);
    return;
  }
  // Copies preserve canonicality of the source register's image when the
  // widths agree.
  if (I.opcode() == Opcode::Copy &&
      F.regType(I.operand(0)) == F.regType(Dest) &&
      Facts.test(I.operand(0))) {
    Facts.set(Dest);
    return;
  }
  Facts.reset(Dest);
}

unsigned runAvailabilityCSE(Function &F, const TargetInfo &Target,
                            AnalysisCache &Cache) {
  const CFG &Cfg = Cache.cfg();
  const auto &RPO = Cfg.reversePostOrder();

  // IN/OUT: bit set = register canonically extended on all paths, indexed
  // by block num(). All-ones is the optimistic start for the all-paths
  // meet, and also the entry's IN: parameters arrive extended (ABI), and
  // locals start at zero, which is canonical for every width.
  const DenseBitset AllOnes(F.numRegs(), /*Filled=*/true);
  std::vector<DenseBitset> In(F.numBlocks(), AllOnes);
  std::vector<DenseBitset> Out(F.numBlocks(), AllOnes);

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *BB : RPO) {
      if (BB != RPO.front())
        for (BasicBlock *Pred : Cfg.predecessors(BB))
          if (Cfg.isReachable(Pred))
            Changed |= In[BB->num()].intersectWith(Out[Pred->num()]);
      DenseBitset Facts = In[BB->num()];
      for (const Instruction &I : *BB)
        applyTransfer(F, Target, I, Facts);
      if (Facts != Out[BB->num()]) {
        Out[BB->num()] = std::move(Facts);
        Changed = true;
      }
    }
  }

  // Remove extends whose register is already canonical at that point.
  unsigned Removed = 0;
  for (BasicBlock *BB : RPO) {
    DenseBitset Facts = In[BB->num()];
    std::vector<Instruction *> ToErase;
    for (Instruction &I : *BB) {
      if (isCanonicalizingExtend(F, I) && Facts.test(I.dest())) {
        ToErase.push_back(&I);
        continue; // Facts unchanged: the register stays canonical.
      }
      applyTransfer(F, Target, I, Facts);
    }
    for (Instruction *I : ToErase) {
      BB->erase(I);
      ++Removed;
    }
  }
  return Removed;
}

unsigned runLoopHoisting(Function &F, AnalysisCache &Cache) {
  const LoopInfo &Loops = Cache.loops();
  const CFG &Cfg = Cache.cfg();
  unsigned Moved = 0;

  for (const auto &L : Loops.loops()) {
    // Unique out-of-loop predecessor of the header, ending in a jmp:
    // a usable preheader without CFG surgery.
    BasicBlock *Preheader = nullptr;
    bool Usable = true;
    for (BasicBlock *Pred : Cfg.predecessors(L->Header)) {
      if (L->contains(Pred))
        continue;
      if (Preheader) {
        Usable = false;
        break;
      }
      Preheader = Pred;
    }
    if (!Usable || !Preheader || !Preheader->terminator() ||
        Preheader->terminator()->opcode() != Opcode::Jmp)
      continue;

    // Count in-loop definitions per register.
    std::unordered_map<Reg, unsigned> DefsInLoop;
    for (BasicBlock *BB : std::vector<BasicBlock *>(L->Blocks.begin(),
                                                    L->Blocks.end()))
      for (Instruction &I : *BB)
        if (I.hasDest())
          ++DefsInLoop[I.dest()];

    for (BasicBlock *BB : std::vector<BasicBlock *>(L->Blocks.begin(),
                                                    L->Blocks.end())) {
      std::vector<Instruction *> Candidates;
      for (Instruction &I : *BB)
        if (isCanonicalizingExtend(F, I) && DefsInLoop[I.dest()] == 1)
          Candidates.push_back(&I);
      for (Instruction *Ext : Candidates) {
        // The extension is the register's only definition in the loop:
        // hoist it to the preheader.
        Instruction *Clone = F.newInstruction(Ext->opcode());
        Clone->setDest(Ext->dest());
        Clone->addOperand(Ext->operand(0));
        Preheader->insertBefore(Preheader->terminator(), Clone);
        DefsInLoop[Ext->dest()] = 0;
        BB->erase(Ext);
        ++Moved;
      }
    }
  }
  return Moved;
}

} // namespace

unsigned sxe::runExtensionPRE(AnalysisCache &A) {
  Function &F = A.function();
  unsigned Total = 0;
  // Hoisting moves instructions between existing blocks, so the CSE phase
  // reuses the same cached CFG.
  Total += runLoopHoisting(F, A);
  Total += runAvailabilityCSE(F, A.target(), A);
  return Total;
}
