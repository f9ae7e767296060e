//===- codegen/RegAlloc.cpp - Linear-scan register allocation ----------------===//

#include "codegen/RegAlloc.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace sxe;

namespace {

constexpr uint32_t CalleeSavedPool[] = {RBX, R12, R13, R14};
constexpr uint32_t CallerSavedPool[] = {RSI, RDI, R8, R9, R10, R11};
constexpr size_t NoVictim = ~static_cast<size_t>(0);

bool isCalleeSaved(uint32_t Reg) {
  return Reg == RBX || Reg == R12 || Reg == R13 || Reg == R14;
}

/// The linear scan proper: walks intervals by ascending start, expires
/// finished actives, and either assigns a free register from the interval's
/// allowed pool or spills the furthest-ending conflicting interval.
void runLinearScan(std::vector<LiveInterval> &Intervals,
                   const RegAllocOptions &Opts, RegAllocResult &Result) {
  uint32_t NumCallee = std::min<uint32_t>(Opts.MaxCalleeSaved, 4);
  uint32_t NumCaller = std::min<uint32_t>(Opts.MaxCallerSaved, 6);

  bool Free[NumPhysRegs] = {};
  for (uint32_t Index = 0; Index < NumCallee; ++Index)
    Free[CalleeSavedPool[Index]] = true;
  for (uint32_t Index = 0; Index < NumCaller; ++Index)
    Free[CallerSavedPool[Index]] = true;

  std::vector<size_t> Active; // Indices into Intervals, unordered.

  for (size_t Idx = 0; Idx < Intervals.size(); ++Idx) {
    LiveInterval &LI = Intervals[Idx];

    // Expire intervals that ended before this one starts.
    for (size_t AI = 0; AI < Active.size();) {
      if (Intervals[Active[AI]].End < LI.Start) {
        Free[Intervals[Active[AI]].PhysReg] = true;
        Active[AI] = Active.back();
        Active.pop_back();
      } else {
        ++AI;
      }
    }

    // Values that must survive a call can only live in callee-saved
    // registers; everything else prefers caller-saved so the callee-saved
    // pool stays available for call-crossing ranges.
    uint32_t Reg = MNoReg;
    if (!LI.CrossesCall)
      for (uint32_t Index = 0; Index < NumCaller && Reg == MNoReg; ++Index)
        if (Free[CallerSavedPool[Index]])
          Reg = CallerSavedPool[Index];
    for (uint32_t Index = 0; Index < NumCallee && Reg == MNoReg; ++Index)
      if (Free[CalleeSavedPool[Index]])
        Reg = CalleeSavedPool[Index];

    if (Reg != MNoReg) {
      LI.PhysReg = Reg;
      Free[Reg] = false;
      Active.push_back(Idx);
      continue;
    }

    // No free register: spill whoever ends furthest (dreavm's heuristic),
    // provided its register is one this interval may use at all.
    size_t Victim = NoVictim;
    for (size_t AI : Active) {
      if (LI.CrossesCall && !isCalleeSaved(Intervals[AI].PhysReg))
        continue;
      if (Victim == NoVictim || Intervals[AI].End > Intervals[Victim].End)
        Victim = AI;
    }
    if (Victim != NoVictim && Intervals[Victim].End > LI.End) {
      LI.PhysReg = Intervals[Victim].PhysReg;
      Intervals[Victim].PhysReg = MNoReg;
      Intervals[Victim].Slot = Result.NumSpillSlots++;
      ++Result.NumSpilledIntervals;
      Active.erase(std::find(Active.begin(), Active.end(), Victim));
      Active.push_back(Idx);
    } else {
      LI.Slot = Result.NumSpillSlots++;
      ++Result.NumSpilledIntervals;
    }
  }
}

/// Post-scan rewrite: replaces vregs with physical registers, inserts
/// SpillLoad/SpillStore through the reserved scratches, and turns the spilled
/// operands of calls and array accesses into slot references the emitter
/// stages from the frame.
class SpillRewriter {
public:
  SpillRewriter(MFunction &MF, const std::vector<LiveInterval> &Intervals,
                RegAllocResult &Result)
      : MF(MF), Result(Result) {
    uint32_t NumVRegs = MF.NextVirtReg - FirstVirtReg;
    Phys.assign(NumVRegs, MNoReg);
    Slot.assign(NumVRegs, MNoReg);
    for (const LiveInterval &LI : Intervals) {
      Phys[LI.VReg - FirstVirtReg] = LI.PhysReg;
      Slot[LI.VReg - FirstVirtReg] = LI.Slot;
    }
  }

  void run() {
    for (auto &B : MF.Blocks)
      rewriteBlock(*B);
  }

private:
  bool isSpilled(uint32_t VReg) const {
    return Slot[VReg - FirstVirtReg] != MNoReg;
  }
  uint32_t physOf(uint32_t VReg) const { return Phys[VReg - FirstVirtReg]; }
  uint32_t slotOf(uint32_t VReg) const { return Slot[VReg - FirstVirtReg]; }

  /// Calls and array accesses carry spilled operands as slot references;
  /// the emitter stages them through its own scratches.
  uint32_t mapStagedOperand(uint32_t VReg) const {
    if (!isVirtReg(VReg))
      return VReg;
    if (isSpilled(VReg))
      return slotRef(slotOf(VReg));
    uint32_t Reg = physOf(VReg);
    if (Reg == MNoReg)
      sxeUnreachable("staged operand vreg has no assignment");
    return Reg;
  }

  void rewriteBlock(MBlock &B) {
    std::vector<MInst> Out;
    Out.reserve(B.Insts.size());
    for (MInst I : B.Insts) {
      if (I.acceptsSlotRefs()) {
        for (uint32_t &U : I.Uses)
          U = mapStagedOperand(U);
        if (I.Def != MNoReg)
          I.Def = mapStagedOperand(I.Def);
        Out.push_back(std::move(I));
        continue;
      }

      // Distinct spilled use vregs take the scratches in appearance order.
      // Every other instruction has at most two use operands, so two
      // scratches always suffice.
      uint32_t SpilledUse[2] = {MNoReg, MNoReg};
      const uint32_t Scratch[2] = {RAX, RDX};
      unsigned NumSpilledUses = 0;
      for (uint32_t U : I.Uses) {
        if (!isVirtReg(U) || !isSpilled(U))
          continue;
        if (U == SpilledUse[0] || U == SpilledUse[1])
          continue;
        assert(NumSpilledUses < 2 && "more than two spilled uses");
        SpilledUse[NumSpilledUses++] = U;
      }
      for (unsigned Index = 0; Index < NumSpilledUses; ++Index) {
        MInst Load(MOp::SpillLoad);
        Load.Def = Scratch[Index];
        Load.Imm = static_cast<int64_t>(slotOf(SpilledUse[Index]));
        Out.push_back(Load);
        ++Result.NumSpillLoads;
      }

      auto ScratchOf = [&](uint32_t VReg) -> uint32_t {
        for (unsigned Index = 0; Index < NumSpilledUses; ++Index)
          if (SpilledUse[Index] == VReg)
            return Scratch[Index];
        return MNoReg;
      };

      for (uint32_t &U : I.Uses) {
        if (!isVirtReg(U))
          continue;
        uint32_t S = ScratchOf(U);
        U = S != MNoReg ? S : physOf(U);
        if (U == MNoReg)
          sxeUnreachable("use of vreg with no assignment");
      }

      bool StoreDef = false;
      uint32_t DefSlot = 0;
      if (I.Def != MNoReg && isVirtReg(I.Def)) {
        if (isSpilled(I.Def)) {
          // Every emitter pattern reads its sources before writing the
          // destination, so reusing a use scratch (or RAX) is safe; the
          // two-address forms share the scratch with Uses[0] by
          // construction.
          uint32_t S = ScratchOf(I.Def);
          DefSlot = slotOf(I.Def);
          I.Def = S != MNoReg ? S : RAX;
          StoreDef = true;
        } else {
          I.Def = physOf(I.Def);
          if (I.Def == MNoReg)
            sxeUnreachable("def of vreg with no assignment");
        }
      }

      uint32_t StoreSrc = I.Def;
      Out.push_back(std::move(I));
      if (StoreDef) {
        MInst Store(MOp::SpillStore);
        Store.Uses = {StoreSrc};
        Store.Imm = static_cast<int64_t>(DefSlot);
        Out.push_back(Store);
        ++Result.NumSpillStores;
      }
    }
    B.Insts = std::move(Out);
  }

  MFunction &MF;
  RegAllocResult &Result;
  std::vector<uint32_t> Phys;
  std::vector<uint32_t> Slot;
};

} // namespace

RegAllocResult sxe::allocateRegisters(MFunction &MF,
                                      const RegAllocOptions &Opts) {
  RegAllocResult Result;
  std::vector<LiveInterval> Intervals = computeLiveIntervals(MF);
  runLinearScan(Intervals, Opts, Result);
  SpillRewriter(MF, Intervals, Result).run();
  MF.NumSpillSlots = Result.NumSpillSlots;
  Result.Intervals = std::move(Intervals);
  return Result;
}
