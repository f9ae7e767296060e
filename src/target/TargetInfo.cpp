//===- target/TargetInfo.cpp - 64-bit target descriptions --------------------===//

#include "target/TargetInfo.h"

#include <initializer_list>

using namespace sxe;

// Cycle latencies are in-order estimates in the spirit of the paper's
// Section 5 measurements (an 800 MHz Itanium): single-cycle ALU including
// sxt, a multi-cycle multiply, and a very expensive divide (IA64 has no
// integer divide instruction; the JIT emits a software sequence). The
// absolute numbers only matter relatively — Figures 13/14 report percentage
// improvements — so the PPC64/generic64 tables reuse the same memory and FP
// latencies and differ where the ISA genuinely differs (addressing).

const TargetInfo &TargetInfo::ia64() {
  static const TargetInfo T(
      "ia64",
      /*SignExtendingLoad16=*/false, // ld2 zero-extends.
      /*SignExtendingLoad32=*/false, // ld4 zero-extends; sxt4 is explicit.
      /*Has32BitCompare=*/true,      // cmp4.
      /*W32ResultsZeroExtend=*/false,
      AddressingMode{/*FusedScaleAdd=*/true, /*AddressCycles=*/1}, // shladd.
      CycleCosts{/*Alu=*/1, /*Mul=*/7, /*Div=*/36, /*Load=*/2, /*Store=*/1,
                 /*FpAlu=*/4, /*FpDiv=*/30, /*Conv=*/4, /*Branch=*/1,
                 /*Call=*/2, /*Alloc=*/20});
  return T;
}

const TargetInfo &TargetInfo::ppc64() {
  static const TargetInfo T(
      "ppc64",
      /*SignExtendingLoad16=*/true, // lha.
      /*SignExtendingLoad32=*/true, // lwa.
      /*Has32BitCompare=*/true,     // cmpw.
      /*W32ResultsZeroExtend=*/false,
      AddressingMode{/*FusedScaleAdd=*/false,
                     /*AddressCycles=*/2}, // sldi + add.
      CycleCosts{/*Alu=*/1, /*Mul=*/7, /*Div=*/34, /*Load=*/2, /*Store=*/1,
                 /*FpAlu=*/4, /*FpDiv=*/30, /*Conv=*/4, /*Branch=*/1,
                 /*Call=*/2, /*Alloc=*/20});
  return T;
}

const TargetInfo &TargetInfo::generic64() {
  static const TargetInfo T(
      "generic64",
      /*SignExtendingLoad16=*/false,
      /*SignExtendingLoad32=*/false,
      /*Has32BitCompare=*/false, // Section 3's hypothetical machine.
      /*W32ResultsZeroExtend=*/false,
      AddressingMode{/*FusedScaleAdd=*/false, /*AddressCycles=*/2},
      CycleCosts{/*Alu=*/1, /*Mul=*/7, /*Div=*/34, /*Load=*/2, /*Store=*/1,
                 /*FpAlu=*/4, /*FpDiv=*/30, /*Conv=*/4, /*Branch=*/1,
                 /*Call=*/2, /*Alloc=*/20});
  return T;
}

const TargetInfo &TargetInfo::x86_64() {
  static const TargetInfo T(
      "x86_64",
      /*SignExtendingLoad16=*/false, // movzx.
      /*SignExtendingLoad32=*/false, // movl zero-extends; movsxd is explicit.
      /*Has32BitCompare=*/true,      // cmpl.
      /*W32ResultsZeroExtend=*/true, // 32-bit writes clear bits 63:32.
      AddressingMode{/*FusedScaleAdd=*/true,
                     /*AddressCycles=*/1}, // base + index*scale operand.
      CycleCosts{/*Alu=*/1, /*Mul=*/3, /*Div=*/26, /*Load=*/2, /*Store=*/1,
                 /*FpAlu=*/4, /*FpDiv=*/30, /*Conv=*/4, /*Branch=*/1,
                 /*Call=*/2, /*Alloc=*/20});
  return T;
}

const TargetInfo *TargetInfo::byName(const std::string &Name) {
  for (const TargetInfo *T : {&ia64(), &ppc64(), &generic64(), &x86_64()})
    if (T->name() == Name)
      return T;
  return nullptr;
}
