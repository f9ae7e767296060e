//===- opt/DeadCodeElim.cpp - Liveness-based dead code removal ---------------===//

#include "opt/DeadCodeElim.h"

#include "analysis/AnalysisCache.h"

#include <unordered_map>
#include <vector>

using namespace sxe;

namespace {

using LiveSet = std::vector<uint64_t>;

bool testBit(const LiveSet &Set, Reg R) {
  return (Set[R / 64] >> (R % 64)) & 1;
}
void setBit(LiveSet &Set, Reg R) { Set[R / 64] |= 1ULL << (R % 64); }
void clearBit(LiveSet &Set, Reg R) { Set[R / 64] &= ~(1ULL << (R % 64)); }

bool unionInto(LiveSet &Dst, const LiveSet &Src) {
  bool Changed = false;
  for (size_t Index = 0; Index < Dst.size(); ++Index) {
    uint64_t Next = Dst[Index] | Src[Index];
    Changed |= Next != Dst[Index];
    Dst[Index] = Next;
  }
  return Changed;
}

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
  size_t Words = (F.numRegs() + 63) / 64;

  std::unordered_map<const BasicBlock *, LiveSet> LiveOut;
  std::unordered_map<const BasicBlock *, LiveSet> LiveIn;
  for (const auto &BB : F.blocks()) {
    LiveOut[BB.get()] = LiveSet(Words, 0);
    LiveIn[BB.get()] = LiveSet(Words, 0);
  }

  bool Changed = true;
  while (Changed) {
    Changed = false;
    const auto &RPO = Cfg.reversePostOrder();
    for (auto It = RPO.rbegin(); It != RPO.rend(); ++It) {
      BasicBlock *BB = *It;
      LiveSet &Out = LiveOut[BB];
      for (BasicBlock *Succ : Cfg.successors(BB))
        Changed |= unionInto(Out, LiveIn[Succ]);

      LiveSet In = Out;
      // Backward transfer through the block.
      std::vector<const Instruction *> Reversed;
      Reversed.reserve(BB->size());
      for (const Instruction &I : *BB)
        Reversed.push_back(&I);
      for (auto RIt = Reversed.rbegin(); RIt != Reversed.rend(); ++RIt) {
        const Instruction &I = **RIt;
        if (I.hasDest())
          clearBit(In, I.dest());
        for (Reg Operand : I.operands())
          setBit(In, Operand);
      }
      Changed |= unionInto(LiveIn[BB], In);
    }
  }

  // Removal pass: walk each block backwards with a running live set.
  unsigned Removed = 0;
  for (const auto &BB : F.blocks()) {
    LiveSet Live = LiveOut[BB.get()];
    std::vector<Instruction *> Reversed;
    Reversed.reserve(BB->size());
    for (Instruction &I : *BB)
      Reversed.push_back(&I);
    for (auto RIt = Reversed.rbegin(); RIt != Reversed.rend(); ++RIt) {
      Instruction *I = *RIt;
      if (isPureDef(*I) && !testBit(Live, I->dest())) {
        BB->erase(I);
        ++Removed;
        continue;
      }
      if (I->hasDest())
        clearBit(Live, I->dest());
      for (Reg Operand : I->operands())
        setBit(Live, Operand);
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
