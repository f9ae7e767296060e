//===- codegen/X86Encoder.cpp - x86-64 instruction encoder -------------------===//

#include "codegen/X86Encoder.h"

#include "support/Error.h"

#include <cstring>

using namespace sxe;

X86Cond sxe::condForPred(CmpPred Pred) {
  switch (Pred) {
  case CmpPred::EQ:
    return X86Cond::E;
  case CmpPred::NE:
    return X86Cond::NE;
  case CmpPred::SLT:
    return X86Cond::L;
  case CmpPred::SLE:
    return X86Cond::LE;
  case CmpPred::SGT:
    return X86Cond::G;
  case CmpPred::SGE:
    return X86Cond::GE;
  case CmpPred::ULT:
    return X86Cond::B;
  case CmpPred::ULE:
    return X86Cond::BE;
  case CmpPred::UGT:
    return X86Cond::A;
  case CmpPred::UGE:
    return X86Cond::AE;
  }
  sxeUnreachable("invalid CmpPred enumerator");
}

void X86Assembler::imm32(int32_t V) {
  uint32_t U = static_cast<uint32_t>(V);
  byte(U & 0xFF);
  byte((U >> 8) & 0xFF);
  byte((U >> 16) & 0xFF);
  byte((U >> 24) & 0xFF);
}

void X86Assembler::imm64(uint64_t V) {
  for (int Shift = 0; Shift < 64; Shift += 8)
    byte((V >> Shift) & 0xFF);
}

void X86Assembler::rex(bool W, uint32_t Reg, uint32_t Rm, uint32_t Index) {
  uint8_t Rex = 0x40;
  if (W)
    Rex |= 0x08;
  if (Reg >= 8)
    Rex |= 0x04;
  if (Index >= 8)
    Rex |= 0x02;
  if (Rm >= 8)
    Rex |= 0x01;
  if (Rex != 0x40)
    byte(Rex);
}

void X86Assembler::modRR(uint32_t Reg, uint32_t Rm) {
  byte(0xC0 | ((Reg & 7) << 3) | (Rm & 7));
}

void X86Assembler::modRM(uint32_t Reg, uint32_t Base, int32_t Disp) {
  // mod=10 (disp32) keeps every base encodable, including RBP/R13.
  byte(0x80 | ((Reg & 7) << 3) | (Base & 7));
  if ((Base & 7) == 4) // RSP/R12 demand a SIB byte.
    byte(0x24);
  imm32(Disp);
}

void X86Assembler::modSib8(uint32_t Reg, uint32_t Base, uint32_t Index) {
  if (Index == 4) // Index 100 without REX.X encodes "no index", not RSP.
    reportFatalError("codegen: rsp cannot be a scaled index");
  // mod=00 with base 101 means "disp32, no base", so an RBP/R13 base takes
  // mod=01 and a zero disp8.
  bool ZeroDisp8 = (Base & 7) == 5;
  byte((ZeroDisp8 ? 0x44 : 0x04) | ((Reg & 7) << 3)); // rm=100: SIB follows.
  byte(0xC0 | ((Index & 7) << 3) | (Base & 7));       // scale 8.
  if (ZeroDisp8)
    byte(0);
}

void X86Assembler::movRR64(uint32_t Dst, uint32_t Src) {
  rex(true, Dst, Src);
  byte(0x8B);
  modRR(Dst, Src);
}

void X86Assembler::movRR32(uint32_t Dst, uint32_t Src) {
  rex(false, Dst, Src);
  byte(0x8B);
  modRR(Dst, Src);
}

void X86Assembler::movImm64(uint32_t Dst, uint64_t Imm) {
  rex(true, 0, Dst);
  byte(0xB8 | (Dst & 7));
  imm64(Imm);
}

void X86Assembler::aluRR(uint8_t Opcode, bool W64, uint32_t Dst,
                         uint32_t Src) {
  // MR form: reg field is the source, rm the read-modify-written dest.
  rex(W64, Src, Dst);
  byte(Opcode);
  modRR(Src, Dst);
}

void X86Assembler::addRR(bool W64, uint32_t Dst, uint32_t Src) {
  aluRR(0x01, W64, Dst, Src);
}
void X86Assembler::subRR(bool W64, uint32_t Dst, uint32_t Src) {
  aluRR(0x29, W64, Dst, Src);
}
void X86Assembler::andRR(bool W64, uint32_t Dst, uint32_t Src) {
  aluRR(0x21, W64, Dst, Src);
}
void X86Assembler::orRR(bool W64, uint32_t Dst, uint32_t Src) {
  aluRR(0x09, W64, Dst, Src);
}
void X86Assembler::xorRR(bool W64, uint32_t Dst, uint32_t Src) {
  aluRR(0x31, W64, Dst, Src);
}
void X86Assembler::cmpRR(bool W64, uint32_t A, uint32_t B) {
  aluRR(0x39, W64, A, B); // flags = A - B (rm - reg)
}

void X86Assembler::imulRR(bool W64, uint32_t Dst, uint32_t Src) {
  // RM form: reg field is the destination.
  rex(W64, Dst, Src);
  byte(0x0F);
  byte(0xAF);
  modRR(Dst, Src);
}

void X86Assembler::grp3(uint8_t Ext, bool W64, uint32_t Reg) {
  rex(W64, 0, Reg);
  byte(0xF7);
  modRR(Ext, Reg);
}

void X86Assembler::negR(bool W64, uint32_t Reg) { grp3(3, W64, Reg); }
void X86Assembler::notR(bool W64, uint32_t Reg) { grp3(2, W64, Reg); }

void X86Assembler::shiftCl(uint8_t Ext, bool W64, uint32_t Reg) {
  rex(W64, 0, Reg);
  byte(0xD3);
  modRR(Ext, Reg);
}

void X86Assembler::shlCl(bool W64, uint32_t Reg) { shiftCl(4, W64, Reg); }
void X86Assembler::shlImm64(uint32_t Reg, uint8_t Count) {
  rex(true, 0, Reg);
  byte(0xC1);
  modRR(4, Reg);
  byte(Count);
}
void X86Assembler::shrCl(bool W64, uint32_t Reg) { shiftCl(5, W64, Reg); }
void X86Assembler::sarCl(bool W64, uint32_t Reg) { shiftCl(7, W64, Reg); }

void X86Assembler::movsx8(uint32_t Dst, uint32_t Src) {
  rex(true, Dst, Src);
  byte(0x0F);
  byte(0xBE);
  modRR(Dst, Src);
}

void X86Assembler::movsx16(uint32_t Dst, uint32_t Src) {
  rex(true, Dst, Src);
  byte(0x0F);
  byte(0xBF);
  modRR(Dst, Src);
}

void X86Assembler::movsxd(uint32_t Dst, uint32_t Src) {
  rex(true, Dst, Src);
  byte(0x63);
  modRR(Dst, Src);
}

void X86Assembler::movzx8(uint32_t Dst, uint32_t Src) {
  rex(true, Dst, Src);
  byte(0x0F);
  byte(0xB6);
  modRR(Dst, Src);
}

void X86Assembler::movzx16(uint32_t Dst, uint32_t Src) {
  rex(true, Dst, Src);
  byte(0x0F);
  byte(0xB7);
  modRR(Dst, Src);
}

void X86Assembler::testRR64(uint32_t A, uint32_t B) {
  rex(true, B, A);
  byte(0x85);
  modRR(B, A);
}

void X86Assembler::setccCl(X86Cond Cond) {
  byte(0x0F);
  byte(0x90 | static_cast<uint8_t>(Cond));
  modRR(0, 1); // setcc cl (RCX = 1)
}

void X86Assembler::movzxCl32(uint32_t Dst) {
  rex(false, Dst, 1);
  byte(0x0F);
  byte(0xB6);
  modRR(Dst, 1); // source is cl (RCX = 1)
}

void X86Assembler::movRM64(uint32_t Dst, uint32_t Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x8B);
  modRM(Dst, Base, Disp);
}

void X86Assembler::movMR64(uint32_t Base, int32_t Disp, uint32_t Src) {
  rex(true, Src, Base);
  byte(0x89);
  modRM(Src, Base, Disp);
}

void X86Assembler::movRM32(uint32_t Dst, uint32_t Base, int32_t Disp) {
  rex(false, Dst, Base);
  byte(0x8B);
  modRM(Dst, Base, Disp);
}

void X86Assembler::cmpM32R(uint32_t Base, int32_t Disp, uint32_t Src) {
  rex(false, Src, Base);
  byte(0x39);
  modRM(Src, Base, Disp);
}

void X86Assembler::cmpRM64(uint32_t A, uint32_t Base, int32_t Disp) {
  rex(true, A, Base);
  byte(0x3B);
  modRM(A, Base, Disp);
}

void X86Assembler::addRM64(uint32_t Dst, uint32_t Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x03);
  modRM(Dst, Base, Disp);
}

void X86Assembler::incM32(uint32_t Base, int32_t Disp) {
  rex(false, 0, Base);
  byte(0xFF);
  modRM(0, Base, Disp);
}

void X86Assembler::decM32(uint32_t Base, int32_t Disp) {
  rex(false, 1, Base);
  byte(0xFF);
  modRM(1, Base, Disp);
}

void X86Assembler::subM64Imm32(uint32_t Base, int32_t Disp, int32_t Imm) {
  rex(true, 5, Base);
  byte(0x81);
  modRM(5, Base, Disp);
  imm32(Imm);
}

void X86Assembler::leaRM(uint32_t Dst, uint32_t Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x8D);
  modRM(Dst, Base, Disp);
}

void X86Assembler::movRMIdx64(uint32_t Dst, uint32_t Base, uint32_t Index) {
  rex(true, Dst, Base, Index);
  byte(0x8B);
  modSib8(Dst, Base, Index);
}

void X86Assembler::movRMIdx32(uint32_t Dst, uint32_t Base, uint32_t Index) {
  rex(false, Dst, Base, Index);
  byte(0x8B);
  modSib8(Dst, Base, Index);
}

void X86Assembler::movzx8RMIdx(uint32_t Dst, uint32_t Base, uint32_t Index) {
  rex(false, Dst, Base, Index);
  byte(0x0F);
  byte(0xB6);
  modSib8(Dst, Base, Index);
}

void X86Assembler::movzx16RMIdx(uint32_t Dst, uint32_t Base, uint32_t Index) {
  rex(false, Dst, Base, Index);
  byte(0x0F);
  byte(0xB7);
  modSib8(Dst, Base, Index);
}

void X86Assembler::movMIdxR64(uint32_t Base, uint32_t Index, uint32_t Src) {
  rex(true, Src, Base, Index);
  byte(0x89);
  modSib8(Src, Base, Index);
}

void X86Assembler::pushR(uint32_t Reg) {
  if (Reg >= 8)
    byte(0x41);
  byte(0x50 | (Reg & 7));
}

void X86Assembler::popR(uint32_t Reg) {
  if (Reg >= 8)
    byte(0x41);
  byte(0x58 | (Reg & 7));
}

void X86Assembler::subRspImm32(int32_t Imm) {
  byte(0x48);
  byte(0x81);
  byte(0xEC);
  imm32(Imm);
}

void X86Assembler::movqXmmR(uint32_t Xmm, uint32_t Reg) {
  byte(0x66);
  rex(true, Xmm, Reg);
  byte(0x0F);
  byte(0x6E);
  modRR(Xmm, Reg);
}

void X86Assembler::movqRXmm(uint32_t Reg, uint32_t Xmm) {
  byte(0x66);
  rex(true, Xmm, Reg);
  byte(0x0F);
  byte(0x7E);
  modRR(Xmm, Reg);
}

void X86Assembler::addsd01() {
  byte(0xF2);
  byte(0x0F);
  byte(0x58);
  modRR(0, 1);
}

void X86Assembler::subsd01() {
  byte(0xF2);
  byte(0x0F);
  byte(0x5C);
  modRR(0, 1);
}

void X86Assembler::mulsd01() {
  byte(0xF2);
  byte(0x0F);
  byte(0x59);
  modRR(0, 1);
}

void X86Assembler::divsd01() {
  byte(0xF2);
  byte(0x0F);
  byte(0x5E);
  modRR(0, 1);
}

void X86Assembler::xorpd01() {
  byte(0x66);
  byte(0x0F);
  byte(0x57);
  modRR(0, 1);
}

void X86Assembler::cvtsi2sd0(uint32_t Src) {
  byte(0xF2);
  rex(true, 0, Src);
  byte(0x0F);
  byte(0x2A);
  modRR(0, Src);
}

void X86Assembler::callR(uint32_t Reg) {
  if (Reg >= 8)
    byte(0x41);
  byte(0xFF);
  modRR(2, Reg);
}

void X86Assembler::ret() { byte(0xC3); }

void X86Assembler::ud2() {
  byte(0x0F);
  byte(0x0B);
}

size_t X86Assembler::jccRel32(X86Cond Cond) {
  byte(0x0F);
  byte(0x80 | static_cast<uint8_t>(Cond));
  size_t Fixup = Code.size();
  imm32(0);
  return Fixup;
}

size_t X86Assembler::jmpRel32() {
  byte(0xE9);
  size_t Fixup = Code.size();
  imm32(0);
  return Fixup;
}

void X86Assembler::patchRel32(size_t FixupOffset, size_t TargetOffset) {
  int64_t Rel = static_cast<int64_t>(TargetOffset) -
                (static_cast<int64_t>(FixupOffset) + 4);
  if (Rel < INT32_MIN || Rel > INT32_MAX)
    reportFatalError("codegen: branch displacement overflows rel32");
  int32_t Rel32 = static_cast<int32_t>(Rel);
  std::memcpy(Code.data() + FixupOffset, &Rel32, sizeof(Rel32));
}
