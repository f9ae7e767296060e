//===- sxe/OrderDetermination.cpp - Elimination order (phase 3-2) -------------===//

#include "sxe/OrderDetermination.h"

#include "analysis/AnalysisCache.h"

#include <algorithm>

using namespace sxe;

std::vector<Instruction *>
sxe::extensionsByFrequency(AnalysisCache &A,
                           const std::unordered_set<Instruction *> *Inserted) {
  const CFG &Cfg = A.cfg();
  const BlockFrequency &Freq = A.frequencies();

  struct Entry {
    Instruction *Ext;
    double Frequency;
    bool IsInserted;
    unsigned Sequence; ///< Stable tiebreak: discovery order.
  };
  std::vector<Entry> Entries;
  unsigned Sequence = 0;
  for (BasicBlock *BB : Cfg.reversePostOrder()) {
    double BlockFreq = Freq.frequency(BB);
    for (Instruction &I : *BB) {
      if (!I.isConversion())
        continue;
      bool IsInserted = Inserted && Inserted->count(&I) != 0;
      Entries.push_back(Entry{&I, BlockFreq, IsInserted, Sequence++});
    }
  }

  std::stable_sort(Entries.begin(), Entries.end(),
                   [](const Entry &A, const Entry &B) {
                     if (A.Frequency != B.Frequency)
                       return A.Frequency > B.Frequency;
                     if (A.IsInserted != B.IsInserted)
                       return A.IsInserted; // Inserted first in a tier.
                     return A.Sequence < B.Sequence;
                   });

  std::vector<Instruction *> Result;
  Result.reserve(Entries.size());
  for (const Entry &E : Entries)
    Result.push_back(E.Ext);
  return Result;
}

std::vector<Instruction *> sxe::extensionsInReverseDFS(AnalysisCache &A) {
  const auto &DFO = A.cfg().depthFirstOrder();

  std::vector<Instruction *> Result;
  for (auto It = DFO.rbegin(); It != DFO.rend(); ++It) {
    std::vector<Instruction *> Extensions;
    for (Instruction &I : **It)
      if (I.isConversion())
        Extensions.push_back(&I);
    Result.insert(Result.end(), Extensions.rbegin(), Extensions.rend());
  }
  return Result;
}
