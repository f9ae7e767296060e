//===- analysis/ValueRange.h - Integer value range analysis ------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Value-range analysis in the spirit of symbolic range propagation
/// (Blume-Eigenmann; Harrison), reference [4]/[7] of the paper. The
/// theorems of Section 3 need range facts such as "0 <= j <= 0x7fffffff" or
/// "(maxlen-1)-0x7fffffff <= i".
///
/// Tracked semantics, chosen so that the ranges stay valid while the
/// elimination pass deletes sign extensions:
///
///  - for a definition of a sub-register integer register (I8..I32), the
///    range is of the *signed 32-bit interpretation of the lower 32 bits*
///    of the produced register value — removing or adding extends never
///    changes the lower 32 bits, so these ranges are stable;
///  - for an I64 register, the range is of the true 64-bit value;
///  - for an ArrayRef register, the range bounds the referenced array's
///    length.
///
/// Extension state (is the register sign-extended / upper-32-zero) is
/// deliberately *not* computed here: it changes as extends are eliminated,
/// so the elimination pass answers those questions with live UD-chain
/// traversals (sxe/ExtensionFacts.h).
///
//===----------------------------------------------------------------------===//

#ifndef SXE_ANALYSIS_VALUERANGE_H
#define SXE_ANALYSIS_VALUERANGE_H

#include "analysis/UseDefChains.h"
#include "support/DenseBitset.h"
#include "target/TargetInfo.h"

#include <cstdint>
#include <unordered_map>

namespace sxe {

/// A closed interval of int64 values.
struct ValueInterval {
  int64_t Lo = INT64_MIN;
  int64_t Hi = INT64_MAX;

  static ValueInterval full32() { return {INT32_MIN, INT32_MAX}; }
  static ValueInterval full64() { return {INT64_MIN, INT64_MAX}; }
  static ValueInterval exact(int64_t Value) { return {Value, Value}; }

  bool operator==(const ValueInterval &Other) const {
    return Lo == Other.Lo && Hi == Other.Hi;
  }

  bool isNonNegative() const { return Lo >= 0; }
  bool fitsInt32() const { return Lo >= INT32_MIN && Hi <= INT32_MAX; }

  /// Smallest interval containing both.
  ValueInterval join(const ValueInterval &Other) const {
    return {Lo < Other.Lo ? Lo : Other.Lo, Hi > Other.Hi ? Hi : Other.Hi};
  }

  /// Intersection, clamped to stay non-empty (Lo <= Hi).
  ValueInterval meet(const ValueInterval &Other) const {
    int64_t NewLo = Lo > Other.Lo ? Lo : Other.Lo;
    int64_t NewHi = Hi < Other.Hi ? Hi : Other.Hi;
    if (NewLo > NewHi)
      return {NewLo, NewLo}; // Unreachable at runtime; keep well-formed.
    return {NewLo, NewHi};
  }
};

/// Per-definition integer range facts for one function.
///
/// The per-definition tables are flat vectors over the dense instruction
/// numbers of Function::numberInstructions(); because the numbering is
/// assigned in layout order, it doubles as the instruction ordinal the
/// guard machinery compares against redefinition positions. Instructions
/// inserted after construction read Instruction::Unnumbered and fall back
/// to the conservative answer, exactly like the map misses of the old
/// hash-table representation.
class ValueRange {
public:
  /// Computes ranges for every definition of \p F. \p Cfg must describe
  /// the current shape of \p F; guard collection walks it. \p MaxArrayLen
  /// is the configured maximum array length (Java: 0x7fffffff; Theorem 4
  /// also covers smaller configured limits).
  ValueRange(Function &F, const CFG &Cfg, const UseDefChains &Chains,
             const TargetInfo &Target, uint32_t MaxArrayLen,
             bool UseGuards = true);

  uint32_t maxArrayLen() const { return MaxLen; }

  /// Range of the value produced by \p Def (see file comment for the
  /// per-type semantics). Unknown definitions get the full range of the
  /// destination register's type.
  ValueInterval rangeOfDef(const Instruction *Def) const;

  /// Join of the ranges of all definitions reaching operand \p OpIndex of
  /// \p User, including the function-entry definition when it reaches.
  ValueInterval rangeOfUse(const Instruction *User, unsigned OpIndex) const;

  /// Upper bound on the length of any array that can flow into operand
  /// \p OpIndex of \p User (an ArrayRef operand). At most maxArrayLen().
  uint32_t arrayLengthBound(const Instruction *User,
                            unsigned OpIndex) const;

private:
  ValueInterval entryRange(Reg R) const;
  ValueInterval typeRange(Type Ty) const;
  ValueInterval transfer(const Instruction &I) const;
  ValueInterval operandRange(const Instruction &I, unsigned OpIndex) const;

  /// One branch-guard constraint: on paths that crossed the guard edge
  /// with no intervening redefinition of the register, the register's
  /// lower-32 value satisfies `v <Pred> bound`, where the bound is the
  /// (unrefined) range of the compare's other operand. This is the
  /// flow-sensitive ingredient of symbolic range propagation (the paper's
  /// references [4] and [7]): without it, loop counters guarded by
  /// `i < n` would widen to the full int32 range and Theorems 2-4 would
  /// never fire on multi-dimensional subscripts like r*N+c.
  struct Guard {
    Reg Var = NoReg;
    CmpPred Pred = CmpPred::EQ;      ///< Var <Pred> bound holds.
    const Instruction *Cmp = nullptr; ///< Source compare.
    unsigned BoundOpIndex = 0;        ///< Operand of Cmp giving the bound.
    /// Blocks whose entry the guard provably dominates with the variable
    /// unredefined (result of a per-guard must-dataflow).
    DenseBitset ValidIn; ///< Indexed by block num().
  };

  void collectGuards(const class CFG &Cfg);
  void runFixpoint();
  ValueInterval guardInterval(const Guard &G) const;
  ValueInterval refineWithGuards(const Instruction &User, unsigned OpIndex,
                                 ValueInterval R) const;
  bool guardValidAt(const Guard &G, const Instruction &User) const;

  /// Join of the reaching definitions of one operand. During the
  /// ascending fixpoint phase, definitions without a computed range yet
  /// are bottom: they are skipped, and if nothing contributes the join
  /// sets SawBottom and the transfer result is discarded.
  ValueInterval joinOperand(const Instruction &I, unsigned OpIndex) const;

  /// True when \p I has a computed range in DefRanges (bottom otherwise
  /// during the ascending phase; type range after it).
  bool hasRange(const Instruction *I) const {
    uint32_t N = I->num();
    return N < HasRange.size() && HasRange[N];
  }

  Function &F;
  const UseDefChains &Chains;
  const TargetInfo &Target;
  uint32_t MaxLen;
  /// Computed interval per instruction number; valid where HasRange is set.
  std::vector<ValueInterval> DefRanges;
  std::vector<char> HasRange;
  /// Guard indices per guarded register (indexed by Reg).
  std::vector<std::vector<unsigned>> GuardsByReg;
  std::vector<Guard> Guards;
  /// First-definition position of each register per block number. The
  /// positions are instruction numbers, which are assigned in layout order
  /// and therefore totally order the instructions of a block.
  std::vector<std::unordered_map<Reg, unsigned>> FirstDefOrdinal;
  /// Extra worklist edges: a definition feeding a guard's bound (indexed
  /// by instruction number), mapped to the definitions whose transfer
  /// reads the guarded register.
  std::vector<std::vector<Instruction *>> GuardBoundDependents;
  bool Ascending = false;
  mutable bool SawBottom = false;
};

} // namespace sxe

#endif // SXE_ANALYSIS_VALUERANGE_H
