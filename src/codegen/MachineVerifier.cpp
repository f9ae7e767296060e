//===- codegen/MachineVerifier.cpp - Post-RA machine IR checks ---------------===//

#include "codegen/MachineVerifier.h"

using namespace sxe;

namespace {

bool isReservedReg(uint32_t Reg) {
  return Reg == RSP || Reg == RBP || Reg == R15;
}

std::string describe(const MFunction &MF, const MBlock &B, const MInst &I,
                     const std::string &Problem) {
  return MF.name() + ":" + B.name() + ": " + mopName(I.Op) + ": " + Problem;
}

std::string checkOperand(const MFunction &MF, const MBlock &B, const MInst &I,
                         uint32_t Reg, bool IsDef) {
  std::string Role = IsDef ? "def" : "use";
  if (Reg == MNoReg)
    return describe(MF, B, I, "operand is <none> as " + Role);
  if (isVirtReg(Reg))
    return describe(MF, B, I,
                    "unallocated vreg v" +
                        std::to_string(Reg - FirstVirtReg) + " survives as " +
                        Role);
  if (isSlotRef(Reg)) {
    if (!I.acceptsSlotRefs())
      return describe(MF, B, I,
                      "slot reference on an instruction that cannot stage it");
    if (slotOfRef(Reg) >= MF.NumSpillSlots)
      return describe(MF, B, I,
                      "slot reference " + std::to_string(slotOfRef(Reg)) +
                          " outside the " +
                          std::to_string(MF.NumSpillSlots) +
                          "-slot spill area");
    return "";
  }
  // RAX/RCX/RDX are legitimate here: the spill rewriter routes loads and
  // stores through them. What must never appear after allocation is the
  // frame pair or the context register.
  if (isReservedReg(Reg))
    return describe(MF, B, I,
                    "reserved register " + std::string(physRegName(Reg)) +
                        " used as " + Role);
  return "";
}

} // namespace

std::string sxe::verifyMachineFunction(
    const MFunction &MF, const std::vector<LiveInterval> *Intervals) {
  if (MF.Blocks.empty())
    return MF.name() + ": function has no blocks";

  for (const auto &BP : MF.Blocks) {
    const MBlock &B = *BP;
    if (B.Insts.empty())
      return MF.name() + ":" + B.name() + ": empty block";
    for (size_t Index = 0; Index < B.Insts.size(); ++Index) {
      const MInst &I = B.Insts[Index];
      bool Last = Index + 1 == B.Insts.size();
      if (I.isTerminator() != Last)
        return describe(MF, B, I,
                        Last ? "block does not end in a terminator"
                             : "terminator in the middle of a block");
      for (unsigned SI = 0; SI < I.numSuccessors(); ++SI)
        if (!I.Succs[SI])
          return describe(MF, B, I, "null successor");

      if (I.Def != MNoReg) {
        std::string Err = checkOperand(MF, B, I, I.Def, /*IsDef=*/true);
        if (!Err.empty())
          return Err;
      }
      for (uint32_t U : I.Uses) {
        std::string Err = checkOperand(MF, B, I, U, /*IsDef=*/false);
        if (!Err.empty())
          return Err;
      }
      if ((I.Op == MOp::SpillStore || I.Op == MOp::SpillLoad) &&
          static_cast<uint64_t>(I.Imm) >= MF.NumSpillSlots)
        return describe(MF, B, I,
                        "spill slot " + std::to_string(I.Imm) +
                            " outside the " +
                            std::to_string(MF.NumSpillSlots) +
                            "-slot spill area");
    }
  }

  if (Intervals) {
    for (size_t A = 0; A < Intervals->size(); ++A) {
      const LiveInterval &IA = (*Intervals)[A];
      if (IA.PhysReg == MNoReg)
        continue;
      for (size_t B = A + 1; B < Intervals->size(); ++B) {
        const LiveInterval &IB = (*Intervals)[B];
        if (IB.PhysReg != IA.PhysReg)
          continue;
        if (IA.overlaps(IB))
          return MF.name() + ": intervals v" +
                 std::to_string(IA.VReg - FirstVirtReg) + " [" +
                 std::to_string(IA.Start) + "," + std::to_string(IA.End) +
                 "] and v" + std::to_string(IB.VReg - FirstVirtReg) + " [" +
                 std::to_string(IB.Start) + "," + std::to_string(IB.End) +
                 "] overlap in " + physRegName(IA.PhysReg);
      }
    }
  }
  return "";
}
