//===- codegen/MachineIR.cpp - x86-64-shaped machine IR ----------------------===//

#include "codegen/MachineIR.h"

#include "support/Error.h"

#include <sstream>

using namespace sxe;

const char *sxe::physRegName(uint32_t R) {
  static const char *const Names[NumPhysRegs] = {
      "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
      "r8",  "r9",  "r10", "r11", "r12", "r13", "r14", "r15"};
  return R < NumPhysRegs ? Names[R] : "r?";
}

const char *sxe::helperName(MHelper H) {
  switch (H) {
  case MHelper::None:
    return "none";
  case MHelper::NewArray:
    return "new_array";
  case MHelper::Div32:
    return "div32";
  case MHelper::Rem32:
    return "rem32";
  case MHelper::Div64:
    return "div64";
  case MHelper::Rem64:
    return "rem64";
  case MHelper::D2I:
    return "d2i";
  case MHelper::FCmp:
    return "fcmp";
  case MHelper::Trap:
    return "trap";
  }
  sxeUnreachable("invalid MHelper enumerator");
}

const char *sxe::mopName(MOp Op) {
  switch (Op) {
  case MOp::MovImm:
    return "movimm";
  case MOp::MovRR:
    return "mov";
  case MOp::Mov32:
    return "movl";
  case MOp::Add:
    return "add";
  case MOp::Sub:
    return "sub";
  case MOp::IMul:
    return "imul";
  case MOp::And:
    return "and";
  case MOp::Or:
    return "or";
  case MOp::Xor:
    return "xor";
  case MOp::Shl:
    return "shl";
  case MOp::Shr:
    return "shr";
  case MOp::Sar:
    return "sar";
  case MOp::Neg:
    return "neg";
  case MOp::Not:
    return "not";
  case MOp::Movsx8:
    return "movsx8";
  case MOp::Movsx16:
    return "movsx16";
  case MOp::Movsx32:
    return "movsxd";
  case MOp::Movzx8:
    return "movzx8";
  case MOp::Movzx16:
    return "movzx16";
  case MOp::CmpSet:
    return "cmpset";
  case MOp::FAdd:
    return "fadd";
  case MOp::FSub:
    return "fsub";
  case MOp::FMul:
    return "fmul";
  case MOp::FDiv:
    return "fdiv";
  case MOp::FNeg:
    return "fneg";
  case MOp::CvtSi2Sd:
    return "cvtsi2sd";
  case MOp::LoadParam:
    return "loadparam";
  case MOp::ArrLen:
    return "arrlen";
  case MOp::ArrLoad:
    return "arrload";
  case MOp::ArrStore:
    return "arrstore";
  case MOp::CallFn:
    return "call";
  case MOp::CallHelper:
    return "callrt";
  case MOp::TestJnz:
    return "testjnz";
  case MOp::JmpB:
    return "jmp";
  case MOp::RetR:
    return "ret";
  case MOp::SpillStore:
    return "spillst";
  case MOp::SpillLoad:
    return "spillld";
  }
  sxeUnreachable("invalid MOp enumerator");
}

namespace {

std::string regText(uint32_t R) {
  if (R == MNoReg)
    return "<none>";
  if (isPhysReg(R))
    return physRegName(R);
  if (isSlotRef(R))
    return "[slot" + std::to_string(slotOfRef(R)) + "]";
  return 'v' + std::to_string(R - FirstVirtReg);
}

void printInst(std::ostream &OS, const MInst &I) {
  OS << "    ";
  OS << mopName(I.Op);
  if (I.Op == MOp::CmpSet || (I.Op >= MOp::Add && I.Op <= MOp::Not))
    OS << (I.W == Width::W32 ? ".w32" : ".w64");
  if (I.Op == MOp::CmpSet)
    OS << "." << cmpPredName(I.Pred);
  if (I.Op == MOp::ArrLoad || I.Op == MOp::ArrStore)
    OS << "." << typeName(static_cast<Type>(I.Imm));
  if (I.Op == MOp::CallHelper)
    OS << " " << helperName(I.Helper);
  if (I.Def != MNoReg)
    OS << " " << regText(I.Def) << " =";
  for (uint32_t U : I.Uses)
    OS << " " << regText(U);
  if (I.Op == MOp::MovImm || I.Op == MOp::LoadParam ||
      I.Op == MOp::SpillStore || I.Op == MOp::SpillLoad ||
      (I.Op == MOp::CallHelper && I.Helper != MHelper::FCmp))
    OS << " #" << I.Imm;
  if (I.Op == MOp::CallFn)
    OS << " @fn" << I.Callee;
  if (I.Op == MOp::TestJnz)
    OS << " -> " << I.Succs[0]->name() << ", " << I.Succs[1]->name();
  if (I.Op == MOp::JmpB)
    OS << " -> " << I.Succs[0]->name();
  OS << "\n";
}

} // namespace

std::string sxe::printMachineFunction(const MFunction &MF) {
  std::ostringstream OS;
  OS << "mfunc " << MF.name() << " (params " << MF.NumParams << ", slots "
     << MF.NumSpillSlots << ")\n";
  for (const auto &B : MF.Blocks) {
    OS << "  " << B->name() << ": ; fuel " << B->FuelCost << "\n";
    for (const MInst &I : B->Insts)
      printInst(OS, I);
  }
  return OS.str();
}

std::string sxe::printMachineModule(const MModule &MM) {
  std::string Text;
  for (const auto &F : MM.Functions)
    Text += printMachineFunction(*F);
  return Text;
}
