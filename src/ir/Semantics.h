//===- ir/Semantics.h - Concrete semantics of the pure IR operations -*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one concrete definition of what the pure IR operations compute on
/// 64-bit registers. The interpreter, the local constant folder and the
/// native runtime helpers all evaluate through these functions, so the
/// differential oracle compares engines that cannot disagree about
/// arithmetic, only about the extensions the optimizer left in place.
///
/// evaluate() returns the *full-register* result of the IA64 model: a W32
/// add or shift-left leaves whatever the 64-bit operation produces in the
/// upper half. Targets whose 32-bit instructions zero-extend (x86-64) mask
/// W32 results afterwards; Java semantics canonicalize them with
/// canonical(). Both stay with the caller. The only trap the pure
/// operations raise is division by zero, which evaluate() signals rather
/// than raises.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_IR_SEMANTICS_H
#define SXE_IR_SEMANTICS_H

#include "ir/Opcode.h"
#include "ir/Type.h"

#include <cmath>
#include <cstdint>
#include <cstring>

namespace sxe {

inline double bitsToDouble(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

inline uint64_t doubleToBits(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return Bits;
}

inline uint64_t signExtend8(uint64_t V) {
  return static_cast<uint64_t>(static_cast<int64_t>(static_cast<int8_t>(V)));
}
inline uint64_t signExtend16(uint64_t V) {
  return static_cast<uint64_t>(static_cast<int64_t>(static_cast<int16_t>(V)));
}
inline uint64_t signExtend32(uint64_t V) {
  return static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(V)));
}

/// Canonicalizes \p Value to the width of register type \p Ty: sign-extend
/// I8/I16/I32, zero-extend U16, identity otherwise.
inline uint64_t canonical(uint64_t Value, Type Ty) {
  switch (Ty) {
  case Type::I8:
    return signExtend8(Value);
  case Type::I16:
    return signExtend16(Value);
  case Type::U16:
    return Value & 0xFFFF;
  case Type::I32:
    return signExtend32(Value);
  default:
    return Value;
  }
}

/// Integer compare. A W32 compare reads only the lower 32 bits (IA64
/// cmp4, PPC64's word compare); W64 reads the full registers.
inline bool compare(CmpPred Pred, Width W, uint64_t A, uint64_t B) {
  if (W == Width::W32) {
    A = signExtend32(A);
    B = signExtend32(B);
  }
  int64_t SA = static_cast<int64_t>(A), SB = static_cast<int64_t>(B);
  // Sign-extending both sides preserves their unsigned 32-bit order.
  switch (Pred) {
  case CmpPred::EQ:
    return A == B;
  case CmpPred::NE:
    return A != B;
  case CmpPred::SLT:
    return SA < SB;
  case CmpPred::SLE:
    return SA <= SB;
  case CmpPred::SGT:
    return SA > SB;
  case CmpPred::SGE:
    return SA >= SB;
  case CmpPred::ULT:
    return A < B;
  case CmpPred::ULE:
    return A <= B;
  case CmpPred::UGT:
    return A > B;
  case CmpPred::UGE:
    return A >= B;
  }
  return false;
}

/// Double compare with Java's unordered rule: when either side is NaN only
/// `ne` holds. Signed and unsigned predicates coincide.
inline bool fcmp(CmpPred Pred, double A, double B) {
  if (std::isnan(A) || std::isnan(B))
    return Pred == CmpPred::NE;
  switch (Pred) {
  case CmpPred::EQ:
    return A == B;
  case CmpPred::NE:
    return A != B;
  case CmpPred::SLT:
  case CmpPred::ULT:
    return A < B;
  case CmpPred::SLE:
  case CmpPred::ULE:
    return A <= B;
  case CmpPred::SGT:
  case CmpPred::UGT:
    return A > B;
  case CmpPred::SGE:
  case CmpPred::UGE:
    return A >= B;
  }
  return false;
}

/// Java d2i: NaN converts to 0, out-of-range values saturate.
inline int32_t d2i(double D) {
  if (std::isnan(D))
    return 0;
  if (D >= 2147483647.0)
    return INT32_MAX;
  if (D <= -2147483648.0)
    return INT32_MIN;
  return static_cast<int32_t>(D);
}

/// Which bits a W32 divide reads. x86-64's `idiv r32` reads the lower 32
/// bits of each register; the other targets' divide sequences read the
/// full registers, so unextended upper halves reach the result.
enum class DivOperands : uint8_t { FullRegister, Low32 };

/// Result of evaluate(): a register value, or a divide by zero.
struct Evaluation {
  uint64_t Value = 0;
  bool DivByZero = false;
};

/// True for the opcodes evaluate() defines: the integer arithmetic, the
/// conversions and Cmp.
constexpr bool isEvaluable(Opcode Op) {
  return (Op >= Opcode::Add && Op <= Opcode::Trunc32) || Op == Opcode::Cmp;
}

/// Evaluates the pure integer operation \p Op on register values \p A and
/// \p B (B is ignored by unary operations) and returns the full-register
/// result. \p W is the operation's width, \p Pred the predicate of a Cmp,
/// and \p Div which bits a W32 Div/Rem reads. Division implements Java
/// semantics: a W32 quotient or remainder is sign-extended from 32 bits,
/// and MIN / -1 wraps at both widths, so every input is defined.
inline Evaluation evaluate(Opcode Op, Width W, CmpPred Pred, uint64_t A,
                           uint64_t B,
                           DivOperands Div = DivOperands::FullRegister) {
  const bool W32 = W == Width::W32;
  switch (Op) {
  case Opcode::Add:
    return {A + B};
  case Opcode::Sub:
    return {A - B};
  case Opcode::Mul:
    return {A * B};
  case Opcode::Div:
  case Opcode::Rem: {
    if (W32 && Div == DivOperands::Low32) {
      A = signExtend32(A);
      B = signExtend32(B);
    }
    if (W32 ? static_cast<uint32_t>(B) == 0 : B == 0)
      return {0, true};
    int64_t X = static_cast<int64_t>(A), Y = static_cast<int64_t>(B);
    int64_t Value;
    if (X == INT64_MIN && Y == -1) // Java wraps; C leaves this undefined.
      Value = Op == Opcode::Div ? INT64_MIN : 0;
    else
      Value = Op == Opcode::Div ? X / Y : X % Y;
    uint64_t Result = static_cast<uint64_t>(Value);
    return {W32 ? signExtend32(Result) : Result};
  }
  case Opcode::And:
    return {A & B};
  case Opcode::Or:
    return {A | B};
  case Opcode::Xor:
    return {A ^ B};
  case Opcode::Shl:
    return {A << (static_cast<unsigned>(B) & (W32 ? 31u : 63u))};
  case Opcode::Shr:
    // W32 is an unsigned extract from the low 32 bits (IA64 extr.u), so
    // the result is zero-extended whatever the input's upper half holds.
    if (W32)
      return {static_cast<uint64_t>(static_cast<uint32_t>(A)) >>
              (static_cast<unsigned>(B) & 31u)};
    return {A >> (static_cast<unsigned>(B) & 63u)};
  case Opcode::Sar:
    // W32 is a signed extract (IA64 extr): sign-extended from the low 32
    // bits only.
    if (W32)
      return {static_cast<uint64_t>(static_cast<int64_t>(
          static_cast<int32_t>(A) >> (static_cast<unsigned>(B) & 31u)))};
    return {static_cast<uint64_t>(static_cast<int64_t>(A) >>
                                  (static_cast<unsigned>(B) & 63u))};
  case Opcode::Neg:
    return {0 - A};
  case Opcode::Not:
    return {~A};
  case Opcode::Sext8:
    return {signExtend8(A)};
  case Opcode::Sext16:
    return {signExtend16(A)};
  case Opcode::Sext32:
    return {signExtend32(A)};
  case Opcode::Zext32:
  case Opcode::Trunc32:
    return {A & 0xFFFFFFFF};
  case Opcode::Zext8:
    return {A & 0xFF};
  case Opcode::Zext16:
    return {A & 0xFFFF};
  case Opcode::Cmp:
    return {compare(Pred, W, A, B) ? 1u : 0u};
  default:
    return {};
  }
}

} // namespace sxe

#endif // SXE_IR_SEMANTICS_H
