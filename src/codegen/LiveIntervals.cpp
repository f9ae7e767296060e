//===- codegen/LiveIntervals.cpp - Live intervals over machine IR ------------===//

#include "codegen/LiveIntervals.h"

#include <algorithm>

using namespace sxe;

uint32_t sxe::numberMachineInsts(MFunction &MF) {
  uint32_t Pos = 0;
  for (auto &B : MF.Blocks)
    for (MInst &I : B->Insts) {
      I.Pos = Pos;
      Pos += 2;
    }
  return Pos;
}

BlockLiveness sxe::computeBlockLiveness(const MFunction &MF) {
  size_t NumBlocks = MF.Blocks.size();
  uint32_t NumVRegs = MF.NextVirtReg - FirstVirtReg;

  // Per block: the vregs read before any write in it (upward-exposed
  // uses) and the vregs it writes.
  std::vector<DenseBitset> Uses(NumBlocks, DenseBitset(NumVRegs));
  std::vector<DenseBitset> Defs(NumBlocks, DenseBitset(NumVRegs));
  for (size_t BI = 0; BI < NumBlocks; ++BI) {
    const std::vector<MInst> &Insts = MF.Blocks[BI]->Insts;
    for (size_t II = Insts.size(); II-- > 0;) {
      const MInst &I = Insts[II];
      if (I.Def != MNoReg && isVirtReg(I.Def)) {
        Uses[BI].reset(I.Def - FirstVirtReg);
        Defs[BI].set(I.Def - FirstVirtReg);
      }
      for (uint32_t U : I.Uses)
        if (isVirtReg(U))
          Uses[BI].set(U - FirstVirtReg);
    }
  }

  // Backward fixpoint: Out = union of the successors' In, and
  // In = Uses | (Out - Defs). Sweeping the blocks in reverse layout order
  // settles most of the graph in one pass.
  BlockLiveness L;
  L.LiveIn.assign(NumBlocks, DenseBitset(NumVRegs));
  L.LiveOut.assign(NumBlocks, DenseBitset(NumVRegs));
  DenseBitset In(NumVRegs);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t BI = NumBlocks; BI-- > 0;) {
      const MBlock &B = *MF.Blocks[BI];
      if (!B.Insts.empty()) {
        const MInst &Term = B.Insts.back();
        for (unsigned SI = 0; SI < Term.numSuccessors(); ++SI)
          L.LiveOut[BI].unionWith(L.LiveIn[Term.Succs[SI]->id()]);
      }
      In = L.LiveOut[BI];
      In.subtract(Defs[BI]);
      In.unionWith(Uses[BI]);
      Changed |= L.LiveIn[BI].unionWith(In);
    }
  }
  return L;
}

std::vector<LiveInterval> sxe::computeLiveIntervals(MFunction &MF) {
  numberMachineInsts(MF);
  BlockLiveness L = computeBlockLiveness(MF);

  uint32_t NumVRegs = MF.NextVirtReg - FirstVirtReg;
  // An interval whose VReg is still MNoReg has not been seen yet.
  std::vector<LiveInterval> ByVReg(NumVRegs);

  auto Extend = [&](uint32_t VReg, uint32_t Pos) {
    LiveInterval &LI = ByVReg[VReg - FirstVirtReg];
    if (LI.VReg == MNoReg) {
      LI.VReg = VReg;
      LI.Start = LI.End = Pos;
      return;
    }
    LI.Start = std::min(LI.Start, Pos);
    LI.End = std::max(LI.End, Pos);
  };

  for (const auto &B : MF.Blocks) {
    if (B->Insts.empty())
      continue;
    uint32_t BlockStart = B->Insts.front().Pos;
    uint32_t BlockEnd = B->Insts.back().Pos;
    // A live-in value is live on entry, before the block's first
    // instruction: the odd position just ahead of it. Starting it *at* that
    // instruction would hide a call there from the CrossesCall check below,
    // which only counts calls strictly after the start (so that a call's
    // own def does not cross it). The entry block has no live-ins once
    // lowering has zero-initialized them.
    uint32_t LiveInStart = BlockStart == 0 ? 0 : BlockStart - 1;
    L.LiveIn[B->id()].forEach(
        [&](size_t R) { Extend(FirstVirtReg + R, LiveInStart); });
    L.LiveOut[B->id()].forEach([&](size_t R) {
      Extend(FirstVirtReg + R, BlockStart);
      Extend(FirstVirtReg + R, BlockEnd);
    });
    for (const MInst &I : B->Insts) {
      if (I.Def != MNoReg && isVirtReg(I.Def))
        Extend(I.Def, I.Pos);
      for (uint32_t U : I.Uses)
        if (isVirtReg(U))
          Extend(U, I.Pos);
    }
  }

  std::vector<LiveInterval> Intervals;
  for (const LiveInterval &LI : ByVReg)
    if (LI.VReg != MNoReg)
      Intervals.push_back(LI);

  // Mark intervals that must survive a call.
  std::vector<uint32_t> CallPositions;
  for (const auto &B : MF.Blocks)
    for (const MInst &I : B->Insts)
      if (I.isCall())
        CallPositions.push_back(I.Pos);
  std::sort(CallPositions.begin(), CallPositions.end());
  for (LiveInterval &LI : Intervals) {
    auto It = std::upper_bound(CallPositions.begin(), CallPositions.end(),
                               LI.Start);
    if (It != CallPositions.end() && *It < LI.End)
      LI.CrossesCall = true;
  }

  std::sort(Intervals.begin(), Intervals.end(),
            [](const LiveInterval &A, const LiveInterval &B) {
              if (A.Start != B.Start)
                return A.Start < B.Start;
              return A.VReg < B.VReg;
            });
  return Intervals;
}
