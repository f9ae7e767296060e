//===- opt/DeadCodeElim.cpp - Liveness-based dead code removal ---------------===//

#include "opt/DeadCodeElim.h"

#include "analysis/AnalysisCache.h"
#include "support/DenseBitset.h"

#include <vector>

using namespace sxe;

namespace {

/// Returns true if \p I can be deleted once its destination is dead.
bool isPureDef(const Instruction &I) {
  if (!I.hasDest())
    return false;
  // Trapping instructions (division, allocation, array accesses, calls)
  // are kept: removing them would change observable behaviour.
  return !I.info().MayTrap;
}

/// One liveness + removal round. Returns the number of removals. Removal
/// never touches the block graph, so every sweep after the first reuses
/// the cached CFG.
unsigned sweepOnce(Function &F, AnalysisCache &Cache) {
  const CFG &Cfg = Cache.cfg();

  // Indexed by block num(), which the cached CFG keeps current. The
  // fixpoint visits reachable blocks only, so an unreachable block keeps
  // an empty live-out set.
  std::vector<DenseBitset> LiveOut(F.numBlocks(), DenseBitset(F.numRegs()));
  std::vector<DenseBitset> LiveIn(F.numBlocks(), DenseBitset(F.numRegs()));

  bool Changed = true;
  while (Changed) {
    Changed = false;
    const auto &RPO = Cfg.reversePostOrder();
    for (auto It = RPO.rbegin(); It != RPO.rend(); ++It) {
      BasicBlock *BB = *It;
      DenseBitset &Out = LiveOut[BB->num()];
      for (BasicBlock *Succ : Cfg.successors(BB))
        Changed |= Out.unionWith(LiveIn[Succ->num()]);

      DenseBitset In = Out;
      // Backward transfer through the block.
      std::vector<const Instruction *> Reversed;
      Reversed.reserve(BB->size());
      for (const Instruction &I : *BB)
        Reversed.push_back(&I);
      for (auto RIt = Reversed.rbegin(); RIt != Reversed.rend(); ++RIt) {
        const Instruction &I = **RIt;
        if (I.hasDest())
          In.reset(I.dest());
        for (Reg Operand : I.operands())
          In.set(Operand);
      }
      Changed |= LiveIn[BB->num()].unionWith(In);
    }
  }

  // Removal pass: walk each block backwards with a running live set.
  unsigned Removed = 0;
  for (const auto &BB : F.blocks()) {
    DenseBitset Live = LiveOut[BB->num()];
    std::vector<Instruction *> Reversed;
    Reversed.reserve(BB->size());
    for (Instruction &I : *BB)
      Reversed.push_back(&I);
    for (auto RIt = Reversed.rbegin(); RIt != Reversed.rend(); ++RIt) {
      Instruction *I = *RIt;
      if (isPureDef(*I) && !Live.test(I->dest())) {
        BB->erase(I);
        ++Removed;
        continue;
      }
      if (I->hasDest())
        Live.reset(I->dest());
      for (Reg Operand : I->operands())
        Live.set(Operand);
    }
  }
  return Removed;
}

} // namespace

unsigned sxe::runDeadCodeElim(AnalysisCache &A) {
  unsigned Total = 0;
  while (unsigned Removed = sweepOnce(A.function(), A))
    Total += Removed;
  return Total;
}
