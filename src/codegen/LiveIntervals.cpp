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
  BlockLiveness L;
  L.LiveIn.assign(NumBlocks, std::vector<bool>(NumVRegs, false));
  L.LiveOut.assign(NumBlocks, std::vector<bool>(NumVRegs, false));

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t BI = NumBlocks; BI-- > 0;) {
      const MBlock &B = *MF.Blocks[BI];
      std::vector<bool> Out(NumVRegs, false);
      if (!B.Insts.empty()) {
        const MInst &Term = B.Insts.back();
        for (unsigned SI = 0; SI < Term.numSuccessors(); ++SI) {
          const std::vector<bool> &SuccIn = L.LiveIn[Term.Succs[SI]->id()];
          for (uint32_t R = 0; R < NumVRegs; ++R)
            if (SuccIn[R])
              Out[R] = true;
        }
      }
      std::vector<bool> Live = Out;
      for (size_t II = B.Insts.size(); II-- > 0;) {
        const MInst &I = B.Insts[II];
        if (I.Def != MNoReg && isVirtReg(I.Def))
          Live[I.Def - FirstVirtReg] = false;
        for (uint32_t U : I.Uses)
          if (isVirtReg(U))
            Live[U - FirstVirtReg] = true;
      }
      if (Out != L.LiveOut[BI]) {
        L.LiveOut[BI] = std::move(Out);
        Changed = true;
      }
      if (Live != L.LiveIn[BI]) {
        L.LiveIn[BI] = std::move(Live);
        Changed = true;
      }
    }
  }
  return L;
}

std::vector<LiveInterval> sxe::computeLiveIntervals(MFunction &MF) {
  numberMachineInsts(MF);
  BlockLiveness L = computeBlockLiveness(MF);

  uint32_t NumVRegs = MF.NextVirtReg - FirstVirtReg;
  std::vector<LiveInterval> ByVReg(NumVRegs);
  std::vector<bool> Seen(NumVRegs, false);

  auto Extend = [&](uint32_t VReg, uint32_t Pos) {
    uint32_t R = VReg - FirstVirtReg;
    LiveInterval &LI = ByVReg[R];
    if (!Seen[R]) {
      Seen[R] = true;
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
    const std::vector<bool> &In = L.LiveIn[B->id()];
    const std::vector<bool> &Out = L.LiveOut[B->id()];
    for (uint32_t R = 0; R < NumVRegs; ++R) {
      if (In[R])
        Extend(FirstVirtReg + R, LiveInStart);
      if (Out[R]) {
        Extend(FirstVirtReg + R, BlockStart);
        Extend(FirstVirtReg + R, BlockEnd);
      }
    }
    for (const MInst &I : B->Insts) {
      if (I.Def != MNoReg && isVirtReg(I.Def))
        Extend(I.Def, I.Pos);
      for (uint32_t U : I.Uses)
        if (isVirtReg(U))
          Extend(U, I.Pos);
    }
  }

  std::vector<LiveInterval> Intervals;
  for (uint32_t R = 0; R < NumVRegs; ++R)
    if (Seen[R])
      Intervals.push_back(ByVReg[R]);

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
