//===- opt/SimplifyCFG.cpp - Conservative CFG cleanup --------------------------===//

#include "opt/SimplifyCFG.h"

#include "analysis/AnalysisCache.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace sxe;

namespace {

/// Retargets every successor slot equal to \p From to \p To.
void retargetBranches(Function &F, BasicBlock *From, BasicBlock *To) {
  for (const auto &BB : F.blocks()) {
    Instruction *Term = BB->terminator();
    if (!Term)
      continue;
    for (unsigned Index = 0; Index < Term->numSuccessors(); ++Index)
      if (Term->successor(Index) == From)
        Term->setSuccessor(Index, To);
  }
}

/// One cleanup round; returns the number of blocks removed. The cache
/// bounds CFG construction to one build per block-graph mutation: step 2
/// rebuilds only when step 1 erased something, and step 3 reuses step 2's
/// graph whenever the merge list came up empty.
unsigned simplifyOnce(Function &F, AnalysisCache &Cache) {
  unsigned Removed = 0;

  // 1. Thread trivial jump chains: a non-entry block containing only
  //    `jmp T` (and not jumping to itself) is bypassed.
  {
    std::vector<BasicBlock *> Trivial;
    for (const auto &BB : F.blocks()) {
      if (BB.get() == F.entryBlock() || BB->size() != 1)
        continue;
      Instruction *Term = BB->terminator();
      if (Term && Term->opcode() == Opcode::Jmp &&
          Term->successor(0) != BB.get())
        Trivial.push_back(BB.get());
    }
    for (BasicBlock *BB : Trivial) {
      BasicBlock *Target = BB->terminator()->successor(0);
      if (Target == BB)
        continue; // Re-check: earlier retargeting may have looped it.
      retargetBranches(F, BB, Target);
      F.eraseBlock(BB);
      ++Removed;
    }
  }

  // 2. Merge B -> S when B ends in `jmp S` and S has no other
  //    predecessors (and S is not the entry).
  {
    const CFG &Cfg = Cache.cfg();
    // Collect merge pairs first; each round merges disjoint pairs.
    std::unordered_set<BasicBlock *> Touched;
    std::vector<std::pair<BasicBlock *, BasicBlock *>> Merges;
    for (const auto &BB : F.blocks()) {
      if (!Cfg.isReachable(BB.get()))
        continue;
      Instruction *Term = BB->terminator();
      if (!Term || Term->opcode() != Opcode::Jmp)
        continue;
      BasicBlock *Succ = Term->successor(0);
      if (Succ == F.entryBlock() || Succ == BB.get())
        continue;
      if (Cfg.predecessors(Succ).size() != 1)
        continue;
      if (Touched.count(BB.get()) || Touched.count(Succ))
        continue;
      Touched.insert(BB.get());
      Touched.insert(Succ);
      Merges.push_back({BB.get(), Succ});
    }
    for (auto &[Pred, Succ] : Merges) {
      Pred->erase(Pred->terminator());
      // Move every instruction of Succ into Pred.
      std::vector<Instruction *> Moved;
      for (Instruction &I : *Succ)
        Moved.push_back(&I);
      for (Instruction *I : Moved) {
        Instruction *Placed = Pred->append(F.cloneInstruction(*I));
        Placed->setId(I->id()); // Keep profile keys stable.
      }
      retargetBranches(F, Succ, Pred); // Defensive; none should exist.
      F.eraseBlock(Succ);
      ++Removed;
    }
  }

  // 3. Drop unreachable blocks.
  {
    const CFG &Cfg = Cache.cfg();
    std::vector<BasicBlock *> Dead;
    for (const auto &BB : F.blocks())
      if (!Cfg.isReachable(BB.get()))
        Dead.push_back(BB.get());
    for (BasicBlock *BB : Dead) {
      F.eraseBlock(BB);
      ++Removed;
    }
  }

  return Removed;
}

} // namespace

unsigned sxe::runSimplifyCFG(AnalysisCache &A) {
  unsigned Total = 0;
  while (unsigned Removed = simplifyOnce(A.function(), A))
    Total += Removed;
  return Total;
}
