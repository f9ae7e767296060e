//===- target/TargetInfo.h - 64-bit target descriptions ----------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable descriptions of the 64-bit machines the optimization is
/// parameterized over. The paper's algorithm is target-dependent in exactly
/// three ways (Sections 1, 2.3, 5):
///
///  - whether narrow memory loads implicitly sign-extend their result
///    (PPC64's `lha`/`lwa` do; IA64 zero-extends every sub-register load,
///    which is what makes the array theorems fire there);
///  - whether the ISA has 32-bit compare instructions (IA64 `cmp4`, PPC64
///    word compares) so bounds checks and int compares need no canonical
///    operands — `generic64` models a machine without them (Section 3's
///    caveat);
///  - how an array effective address is formed: IA64 fuses the element
///    scaling and the base add in one `shladd`, PPC64 needs a separate
///    shift (`sldi`/`rldic`) followed by an add.
///
/// The per-opcode cycle table consumed by target/CostModel.h also lives
/// here, so a target is one self-contained "static lowering model".
///
//===----------------------------------------------------------------------===//

#ifndef SXE_TARGET_TARGETINFO_H
#define SXE_TARGET_TARGETINFO_H

#include "ir/Type.h"

#include <string>

namespace sxe {

/// How the target computes `base + index * elemsize` for an array access.
struct AddressingMode {
  /// True when one instruction scales the index and adds the base (IA64
  /// `shladd r = index, log2(size), base`); false when the scale and the
  /// add are separate instructions (PPC64 `sldi` + `add`).
  bool FusedScaleAdd;
  /// Cycles spent forming the effective address; 1 when fused, 2 when the
  /// shift and the add issue separately.
  unsigned AddressCycles;
};

/// Per-opcode-class cycle latencies of one target's lowering (the static
/// cost model behind Figures 13/14). ALU ops — including every `sxt` — are
/// one cycle on all modeled machines.
struct CycleCosts {
  unsigned Alu;    ///< add/sub/logic/shift/compare/copy/const/sext/zext.
  unsigned Mul;    ///< Integer multiply.
  unsigned Div;    ///< Integer divide/remainder (IA64: software sequence).
  unsigned Load;   ///< Memory load latency (beyond address formation).
  unsigned Store;  ///< Memory store issue cost.
  unsigned FpAlu;  ///< FP add/sub/mul/neg.
  unsigned FpDiv;  ///< FP divide.
  unsigned Conv;   ///< int<->FP conversions (I2D/D2I).
  unsigned Branch; ///< Taken-or-not branch / jump / return.
  unsigned Call;   ///< Call overhead on top of the callee's body.
  unsigned Alloc;  ///< Array allocation (runtime call).
};

/// An immutable description of one 64-bit target machine. Obtain instances
/// through the static singletons; there is deliberately no way to build a
/// mutated copy — passes hold `const TargetInfo *` and pointer identity is
/// meaningful (the interpreter and the pipeline must agree on the model).
class TargetInfo {
public:
  /// Itanium-like machine: zero-extending narrow loads, `cmp4`, `shladd`.
  /// The paper's primary evaluation target.
  static const TargetInfo &ia64();

  /// PowerPC64-like machine: sign-extending `lha`/`lwa` halfword/word
  /// loads, word compares, separate shift+add addressing. The paper's
  /// Section 1 contrast target.
  static const TargetInfo &ppc64();

  /// A plain 64-bit machine with zero-extending narrow loads, *no* 32-bit
  /// compare instructions, and separate shift+add addressing — the
  /// hypothetical machine of Section 3's caveat, where even bounds checks
  /// demand canonical operands (DESIGN.md item 12).
  static const TargetInfo &generic64();

  /// An x86-64-like machine: every 32-bit operation writes a 32-bit
  /// register, which the hardware implicitly zero-extends into the full
  /// 64-bit register (the "Tips for making the most of 64-bit
  /// architectures" model). Narrow loads zero-extend (movzx / movl), the
  /// ISA has 32-bit compares, and scaled-index addressing fuses the scale
  /// into the memory operand.
  static const TargetInfo &x86_64();

  /// The target whose name() is \p Name, or null when none is.
  static const TargetInfo *byName(const std::string &Name);

  /// Printable target name ("ia64", "ppc64", "generic64", "x86_64").
  const std::string &name() const { return Name; }

  /// Width of a pointer/register in bits; 64 for every modeled target.
  unsigned pointerWidthBits() const { return PointerBits; }

  /// Returns true when a memory load of element type \p ElemTy leaves the
  /// destination register sign-extended to 64 bits. Byte (I8) and char
  /// (U16) loads zero-extend on every modeled target (PPC64 has no
  /// sign-extending byte load); I64/F64/ArrayRef loads fill the register,
  /// so the question does not arise and the answer is false.
  bool loadSignExtends(Type ElemTy) const {
    switch (ElemTy) {
    case Type::I16:
      return SignExtendingLoad16;
    case Type::I32:
      return SignExtendingLoad32;
    default:
      return false;
    }
  }

  /// Returns true when the ISA compares 32-bit values directly (IA64
  /// `cmp4`, PPC64 `cmpw`): W32 compares then ignore the upper register
  /// halves and need no extended operands.
  bool has32BitCompare() const { return Has32BitCompare; }

  /// Returns true when every 32-bit integer operation implicitly
  /// zero-extends its result into the full 64-bit register (x86-64: a
  /// write to a 32-bit register clears bits 63:32). On such a target every
  /// W32 result is structurally zero-extended at 32 bits and W32
  /// operations read only the low operand halves, so zext32/trunc32
  /// placed after them are always redundant.
  bool w32ResultsZeroExtend() const { return W32ResultsZeroExtend; }

  /// How array effective addresses are formed.
  const AddressingMode &addressing() const { return Addressing; }

  /// The per-opcode-class cycle table (see target/CostModel.h).
  const CycleCosts &costs() const { return Costs; }

private:
  TargetInfo(std::string Name, bool SignExtendingLoad16,
             bool SignExtendingLoad32, bool Has32BitCompare,
             bool W32ResultsZeroExtend, AddressingMode Addressing,
             CycleCosts Costs)
      : Name(std::move(Name)), SignExtendingLoad16(SignExtendingLoad16),
        SignExtendingLoad32(SignExtendingLoad32),
        Has32BitCompare(Has32BitCompare),
        W32ResultsZeroExtend(W32ResultsZeroExtend), Addressing(Addressing),
        Costs(Costs) {}

  TargetInfo(const TargetInfo &) = delete;
  TargetInfo &operator=(const TargetInfo &) = delete;

  std::string Name;
  unsigned PointerBits = 64;
  bool SignExtendingLoad16;
  bool SignExtendingLoad32;
  bool Has32BitCompare;
  bool W32ResultsZeroExtend;
  AddressingMode Addressing;
  CycleCosts Costs;
};

} // namespace sxe

#endif // SXE_TARGET_TARGETINFO_H
