//===- analysis/BlockFrequency.cpp - Execution frequency estimate ------------===//

#include "analysis/BlockFrequency.h"

#include <cmath>

using namespace sxe;

BlockFrequency::BlockFrequency(const CFG &Cfg, const LoopInfo &Loops,
                               const ProfileInfo *Profile) {
  // Acyclic propagation in reverse post-order, ignoring back edges; the
  // result is then scaled by LoopScale^depth. Back edges are edges into a
  // loop header from inside that header's loop.
  const auto &RPO = Cfg.reversePostOrder();
  Freq.assign(Cfg.function().numBlocks(), 0.0);
  if (RPO.empty())
    return;
  Freq[RPO.front()->num()] = 1.0;

  auto isBackEdge = [&](const BasicBlock *From, const BasicBlock *To) {
    const Loop *L = Loops.loopFor(To);
    return L && L->Header == To && L->contains(From);
  };

  for (BasicBlock *BB : RPO) {
    double FromFreq = Freq[BB->num()];
    const Instruction *Term = BB->terminator();
    if (!Term)
      continue;

    unsigned NumSuccs = Term->numSuccessors();
    if (NumSuccs == 0)
      continue;

    double Prob0 = 1.0;
    if (NumSuccs == 2) {
      Prob0 = 0.5;
      if (Profile) {
        if (auto Observed = Profile->takenProbability(Term))
          Prob0 = *Observed;
      }
    }

    for (unsigned Index = 0; Index < NumSuccs; ++Index) {
      BasicBlock *Succ = Term->successor(Index);
      if (isBackEdge(BB, Succ))
        continue;
      double Prob = NumSuccs == 2 ? (Index == 0 ? Prob0 : 1.0 - Prob0) : 1.0;
      Freq[Succ->num()] += FromFreq * Prob;
    }
  }

  for (BasicBlock *BB : RPO)
    Freq[BB->num()] *= std::pow(LoopScale, Loops.loopDepth(BB));
}

double BlockFrequency::frequency(const BasicBlock *BB) const {
  uint32_t N = BB->num();
  return N < Freq.size() ? Freq[N] : 0.0;
}
