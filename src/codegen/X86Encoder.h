//===- codegen/X86Encoder.h - x86-64 instruction encoder ---------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal x86-64 byte assembler covering exactly what the baseline
/// emitter needs: 32/64-bit register ALU, the explicit conversion family
/// (movsx/movzx/movsxd/movl — the instructions this project measures),
/// moves against [base+disp32] memory, the scaled-index [base+index*8]
/// loads and stores of inline array access, scalar double arithmetic
/// through xmm0/xmm1, and rel32 control flow with post-hoc patching.
///
/// Register numbers are the hardware encodings of codegen/MachineIR.h's
/// X86Reg (REX.R/X/B are derived from bit 3). [base+disp32] operands are
/// always encoded with a disp32 for simplicity; RSP/R12 bases get their
/// SIB byte automatically. [base+index*8] operands carry no displacement,
/// except that an RBP/R13 base, which has no displacement-free form, gets
/// a zero disp8.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_CODEGEN_X86ENCODER_H
#define SXE_CODEGEN_X86ENCODER_H

#include "ir/Opcode.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sxe {

/// x86 condition-code values (the tttn field of Jcc/SETcc).
enum class X86Cond : uint8_t {
  B = 0x2,  ///< unsigned <
  AE = 0x3, ///< unsigned >=
  E = 0x4,
  NE = 0x5,
  BE = 0x6, ///< unsigned <=
  A = 0x7,  ///< unsigned >
  S = 0x8,  ///< sign set
  L = 0xC,  ///< signed <
  GE = 0xD,
  LE = 0xE,
  G = 0xF,
};

/// Maps an IR compare predicate to the condition that makes SETcc/Jcc true.
X86Cond condForPred(CmpPred Pred);

/// Streaming x86-64 encoder.
class X86Assembler {
public:
  const std::vector<uint8_t> &code() const { return Code; }
  size_t size() const { return Code.size(); }

  // --- Register moves and constants -------------------------------------
  void movRR64(uint32_t Dst, uint32_t Src);
  void movRR32(uint32_t Dst, uint32_t Src); ///< movl: implicit zero-extend.
  void movImm64(uint32_t Dst, uint64_t Imm);

  // --- Two-address ALU ---------------------------------------------------
  void addRR(bool W64, uint32_t Dst, uint32_t Src);
  void subRR(bool W64, uint32_t Dst, uint32_t Src);
  void imulRR(bool W64, uint32_t Dst, uint32_t Src);
  void andRR(bool W64, uint32_t Dst, uint32_t Src);
  void orRR(bool W64, uint32_t Dst, uint32_t Src);
  void xorRR(bool W64, uint32_t Dst, uint32_t Src);
  void negR(bool W64, uint32_t Reg);
  void notR(bool W64, uint32_t Reg);
  void shlCl(bool W64, uint32_t Reg);
  void shrCl(bool W64, uint32_t Reg);
  void sarCl(bool W64, uint32_t Reg);
  void shlImm64(uint32_t Reg, uint8_t Count); ///< shl r64, imm8

  // --- Conversions -------------------------------------------------------
  void movsx8(uint32_t Dst, uint32_t Src);  ///< movsx r64, r8
  void movsx16(uint32_t Dst, uint32_t Src); ///< movsx r64, r16
  void movsxd(uint32_t Dst, uint32_t Src);  ///< movsxd r64, r32
  void movzx8(uint32_t Dst, uint32_t Src);  ///< movzx r64, r8
  void movzx16(uint32_t Dst, uint32_t Src); ///< movzx r64, r16

  // --- Compare / test / setcc -------------------------------------------
  void cmpRR(bool W64, uint32_t A, uint32_t B); ///< flags = A - B
  void testRR64(uint32_t A, uint32_t B);
  void setccCl(X86Cond Cond);            ///< setcc cl
  void movzxCl32(uint32_t Dst);          ///< movzx dst32, cl

  // --- Memory (always [Base + disp32]) ----------------------------------
  void movRM64(uint32_t Dst, uint32_t Base, int32_t Disp);
  void movMR64(uint32_t Base, int32_t Disp, uint32_t Src);
  void movRM32(uint32_t Dst, uint32_t Base, int32_t Disp);
  void cmpM32R(uint32_t Base, int32_t Disp, uint32_t Src);
  void cmpRM64(uint32_t A, uint32_t Base, int32_t Disp); ///< flags = A - [m]
  void addRM64(uint32_t Dst, uint32_t Base, int32_t Disp);
  void incM32(uint32_t Base, int32_t Disp);
  void decM32(uint32_t Base, int32_t Disp);
  void subM64Imm32(uint32_t Base, int32_t Disp, int32_t Imm);
  void leaRM(uint32_t Dst, uint32_t Base, int32_t Disp);

  // --- Scaled-index memory ([Base + Index*8]; Index must not be RSP) ----
  void movRMIdx64(uint32_t Dst, uint32_t Base, uint32_t Index);
  void movRMIdx32(uint32_t Dst, uint32_t Base, uint32_t Index); ///< mov r32
  void movzx8RMIdx(uint32_t Dst, uint32_t Base, uint32_t Index);  ///< m8
  void movzx16RMIdx(uint32_t Dst, uint32_t Base, uint32_t Index); ///< m16
  void movMIdxR64(uint32_t Base, uint32_t Index, uint32_t Src);

  // --- Stack / frame -----------------------------------------------------
  void pushR(uint32_t Reg);
  void popR(uint32_t Reg);
  void subRspImm32(int32_t Imm);

  // --- Scalar double through xmm0/xmm1 ----------------------------------
  void movqXmmR(uint32_t Xmm, uint32_t Reg); ///< movq xmmN, r64
  void movqRXmm(uint32_t Reg, uint32_t Xmm); ///< movq r64, xmmN
  void addsd01();                            ///< addsd xmm0, xmm1
  void subsd01();
  void mulsd01();
  void divsd01();
  void xorpd01(); ///< xorpd xmm0, xmm1 (sign-flip mask in xmm1)
  void cvtsi2sd0(uint32_t Src); ///< cvtsi2sd xmm0, r64

  // --- Control flow ------------------------------------------------------
  void callR(uint32_t Reg);
  void ret();
  void ud2();
  /// Emits `jcc rel32` with a zero displacement; returns the offset of the
  /// rel32 field for patchRel32.
  size_t jccRel32(X86Cond Cond);
  /// Emits `jmp rel32` with a zero displacement; returns the rel32 offset.
  size_t jmpRel32();
  /// Patches the rel32 at \p FixupOffset to land on \p TargetOffset.
  void patchRel32(size_t FixupOffset, size_t TargetOffset);

private:
  void byte(uint8_t B) { Code.push_back(B); }
  void imm32(int32_t V);
  void imm64(uint64_t V);
  /// REX prefix; emitted only when a bit is set (W, or an r8..r15 in the
  /// reg, SIB index or rm/base field). A byte operand in spl..dil needs one
  /// regardless; every byte-register form here sets REX.W.
  void rex(bool W, uint32_t Reg, uint32_t Rm, uint32_t Index = 0);
  void modRR(uint32_t Reg, uint32_t Rm);
  void modRM(uint32_t Reg, uint32_t Base, int32_t Disp);
  void modSib8(uint32_t Reg, uint32_t Base, uint32_t Index);
  void aluRR(uint8_t Opcode, bool W64, uint32_t Dst, uint32_t Src);
  void grp3(uint8_t Ext, bool W64, uint32_t Reg);
  void shiftCl(uint8_t Ext, bool W64, uint32_t Reg);

  std::vector<uint8_t> Code;
};

} // namespace sxe

#endif // SXE_CODEGEN_X86ENCODER_H
