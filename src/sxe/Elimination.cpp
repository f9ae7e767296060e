//===- sxe/Elimination.cpp - UD/DU-chain elimination (phase 3-3) --------------===//

#include "sxe/Elimination.h"

#include "analysis/AnalysisCache.h"
#include "ir/Opcode.h"
#include "obs/Remarks.h"
#include "sxe/ExtensionFacts.h"
#include "support/EpochIndexSet.h"
#include "support/Error.h"

#include <deque>

using namespace sxe;

namespace {

constexpr int64_t Int32Max = 0x7FFFFFFF;

/// One EliminateOneExtend run uses visited sets in place of the paper's
/// per-instruction USE/DEF/ARRAY flag bits. The sets are keyed by dense
/// indices derived from the instruction numbering — the operand slot for
/// AnalyzeUSE (the operand index matters when one instruction uses the
/// register in operands with different semantics, e.g. `a[i] = i`), and
/// the instruction number (times a small fact index for extendedness
/// queries) everywhere else.
///
/// The mutually recursive queries each start "fresh" visited sets; this
/// LIFO pool hands out cleared EpochIndexSets so a fresh set costs an
/// epoch bump instead of a hash-set allocation. Release order follows
/// scope exit, which matches the recursion.
struct VisitPool {
  size_t Universe = 0;
  std::deque<EpochIndexSet> Sets;
  size_t Depth = 0;

  EpochIndexSet &acquire() {
    if (Depth == Sets.size())
      Sets.emplace_back();
    EpochIndexSet &S = Sets[Depth++];
    S.reserve(Universe);
    S.clear();
    return S;
  }
  void release() { --Depth; }
};

/// Scope guard for one pooled visited set.
struct ScopedVisit {
  VisitPool &Pool;
  EpochIndexSet &Set;
  explicit ScopedVisit(VisitPool &Pool) : Pool(Pool), Set(Pool.acquire()) {}
  ~ScopedVisit() { Pool.release(); }
  ScopedVisit(const ScopedVisit &) = delete;
  ScopedVisit &operator=(const ScopedVisit &) = delete;
};

/// The elimination engine for one function.
class Eliminator {
public:
  Eliminator(AnalysisCache &A, const EliminationOptions &Options)
      : F(A.function()), Target(A.target()), Options(Options) {
    // The chains and the range analysis are shared analysis
    // infrastructure (the paper keeps "UD/DU chain creation" out of the
    // sign-extension-optimization column because other optimizations use
    // the chains too); both are timed under the analysis bucket. Cache
    // hits cost (and therefore time) nothing here — exactly the point: a
    // pipeline that kept the snapshot valid since the last build skips
    // chain creation entirely.
    if (Options.ChainTimer)
      Options.ChainTimer->start();
    Chains = &A.chains();
    Ranges = &A.ranges();
    if (Options.ChainTimer)
      Options.ChainTimer->stop();
    const size_t NumInsts = F.numberInstructions().NumInsts;
    Pool.Universe = NumInsts * NumExtFacts;
    UseVisited.reserve(Chains->numOperandSlots());
    ArrayVisited.reserve(NumInsts);
  }

  EliminationStats run(const std::vector<Instruction *> &Order);

private:
  // --- The paper's EliminateOneExtend / AnalyzeUSE / AnalyzeARRAY --------

  /// Returns true if EXT must stay.
  bool analyzeExtend(Instruction *Ext);

  /// AnalyzeUSE: returns true if \p User's operand \p OpIndex requires the
  /// bits the current extension fixes.
  bool analyzeUse(Instruction *User, unsigned OpIndex, bool AnalyzeArray);

  /// AnalyzeARRAY: returns true if the access still requires the current
  /// extension (i.e. no theorem applies).
  bool analyzeArray(Instruction *Access);

  /// Theorem check for one definition reaching an array subscript.
  bool subscriptDefOK(const Instruction *Def, Reg SubscriptReg,
                      uint32_t MaxLen, EpochIndexSet &Visited);

  // --- Live extension-state queries (AnalyzeDEF generalized) -------------

  /// True if every definition reaching operand \p OpIndex of \p User
  /// produces a \p Bits-sign-extended value (the current EXT masked out).
  bool useExtended(const Instruction *User, unsigned OpIndex, unsigned Bits,
                   EpochIndexSet &Visited);

  /// True if \p Def produces a \p Bits-sign-extended value.
  /// \p AllowUpperZeroRule breaks the mutual recursion with the
  /// zero-extendedness query.
  bool defExtended(const Instruction *Def, unsigned Bits,
                   EpochIndexSet &Visited, bool AllowUpperZeroRule = true);

  /// True if every definition reaching operand \p OpIndex of \p User
  /// produces a \p Bits-zero-extended value (bits >= Bits all zero; for
  /// Bits == 32 this is the paper's "upper 32 bits zero").
  bool useZero(const Instruction *User, unsigned OpIndex, unsigned Bits,
               EpochIndexSet &Visited);

  /// True if \p Def produces a \p Bits-zero-extended value.
  bool defZero(const Instruction *Def, unsigned Bits,
               EpochIndexSet &Visited);

  /// Distinct extendedness facts per instruction (sign/zero kind at 8,
  /// 16, and 32 bits), giving the key stride of the visited sets.
  static constexpr unsigned NumExtFacts = 6;

  /// Visited-set key of "Def produces a Kind-extended-at-Bits value".
  uint32_t extKey(const Instruction *Def, ExtKind Kind,
                  unsigned Bits) const {
    assert((Bits == 8 || Bits == 16 || Bits == 32) &&
           "extension width outside the fact universe");
    assert(Def->num() != Instruction::Unnumbered &&
           "definition outside the analysis snapshot");
    unsigned W = Bits == 8 ? 0 : Bits == 16 ? 1 : 2;
    return Def->num() * NumExtFacts +
           (Kind == ExtKind::Zero ? 3 : 0) + W;
  }

  /// Extension state of the function-entry definition of \p R.
  bool entryExtended(Reg R, unsigned Bits) const;
  bool entryZero(Reg R, unsigned Bits) const;

  ValueInterval use32Range(const Instruction *User, unsigned OpIndex) const {
    ValueInterval R = Ranges->rangeOfUse(User, OpIndex);
    if (!R.fitsInt32())
      return ValueInterval::full32();
    return R;
  }

  Function &F;
  const TargetInfo &Target;
  const EliminationOptions &Options;
  UseDefChains *Chains = nullptr;
  ValueRange *Ranges = nullptr;
  EliminationStats Stats;

  const Instruction *CurrentExt = nullptr;
  unsigned CurrentBits = 32;
  ExtKind CurrentKind = ExtKind::Sign;
  VisitPool Pool;             ///< Fresh-set pool for the recursive queries.
  EpochIndexSet UseVisited;   ///< AnalyzeUSE marks, keyed by operand slot.
  EpochIndexSet ArrayVisited; ///< AnalyzeARRAY marks, keyed by inst number.

  /// Remark attribution for the extension under analysis: the innermost
  /// use that first answered "requires the extension" (for retained
  /// remarks), reset per analyzeExtend.
  const Instruction *BlockingUse = nullptr;
  const char *BlockingReason = nullptr;

  /// Records the first blocking use of the current analysis.
  void noteBlocked(const Instruction *User, const char *Reason) {
    if (!BlockingUse) {
      BlockingUse = User;
      BlockingReason = Reason;
    }
  }

  /// The extendedness and upper-zero queries start fresh visited sets
  /// when they consult each other, so a definition cycle that keeps
  /// crossing between the two worlds is not cut by the per-world marks.
  /// A global depth bound cuts it conservatively (answer "unknown").
  unsigned QueryDepth = 0;
  static constexpr unsigned MaxQueryDepth = 128;
  struct DepthGuard {
    unsigned &Depth;
    explicit DepthGuard(unsigned &Depth) : Depth(Depth) { ++Depth; }
    ~DepthGuard() { --Depth; }
  };
};

bool Eliminator::entryExtended(Reg R, unsigned Bits) const {
  if (R >= F.numParams())
    return true; // Locals start zeroed: canonical for every width.
  switch (F.regType(R)) {
  case Type::I8:
    return Bits >= 8;
  case Type::I16:
    return Bits >= 16;
  case Type::U16:
    return Bits >= 32; // [0, 65535] needs 17 signed bits.
  case Type::I32:
    return Bits >= 32;
  case Type::F64:
  case Type::ArrayRef:
    return true; // Non-integer classes never carry extension state.
  default:
    // An I64 parameter arrives holding an arbitrary 64-bit value: the ABI
    // extends sub-register integer arguments only. Narrowings of it are
    // real operations (same trap as the full-width load/call results).
    return false;
  }
}

bool Eliminator::entryZero(Reg R, unsigned Bits) const {
  if (R >= F.numParams())
    return true; // Locals start zeroed: zero-extended at every width.
  switch (F.regType(R)) {
  case Type::U16:
    return Bits >= 16; // Chars arrive zero-extended at 16 bits.
  case Type::F64:
  case Type::ArrayRef:
    return true; // Non-integer classes never carry extension state.
  default:
    // Signed parameters arrive sign-extended; a negative value has its
    // upper bits set, so no zero-extendedness is known.
    return false;
  }
}

bool Eliminator::useExtended(const Instruction *User, unsigned OpIndex,
                             unsigned Bits, EpochIndexSet &Visited) {
  const auto &Defs = Chains->defsOf(User, OpIndex);
  if (Defs.empty())
    return false; // No chain info: be conservative.
  for (const Instruction *Def : Defs) {
    if (!Def) {
      if (!entryExtended(User->operand(OpIndex), Bits))
        return false;
      continue;
    }
    if (!defExtended(Def, Bits, Visited))
      return false;
  }
  return true;
}

bool Eliminator::defExtended(const Instruction *Def, unsigned Bits,
                             EpochIndexSet &Visited,
                             bool AllowUpperZeroRule) {
  if (QueryDepth > MaxQueryDepth)
    return false; // Cross-world cycle: give up conservatively.
  DepthGuard Guard(QueryDepth);

  // Coinductive cycle treatment, like the paper's DEF flag: a revisit
  // assumes the fact, which is sound because every propagating step
  // preserves extendedness around the cycle.
  if (Visited.testAndSet(extKey(Def, ExtKind::Sign, Bits)))
    return true;

  // Never let the conversion under analysis justify itself: look through
  // to its source.
  if (Def == CurrentExt)
    return useExtended(Def, 0, Bits, Visited);

  if (defKnownExtendedStructural(F, *Def, Target, ExtKind::Sign, Bits))
    return true;

  // Range-assisted facts. Ranges describe the lower-32 signed value, which
  // elimination never changes, so they are safe to consult mid-rewrite.
  ValueInterval R = Ranges->rangeOfDef(Def);

  // A 32-extended value whose (lower-32) range fits Bits signed bits is
  // also Bits-extended.
  if (Bits < 32 && R.fitsInt32() &&
      R.Lo >= -(int64_t(1) << (Bits - 1)) &&
      R.Hi <= (int64_t(1) << (Bits - 1)) - 1 &&
      defExtended(Def, 32, Visited, AllowUpperZeroRule))
    return true;

  // A Bits-zero-extended register holding a value below 2^(Bits-1) is
  // also Bits-sign-extended (its sign bit is clear). For Bits == 32 this
  // is the paper's zero-upper-half rule on non-negative int32 values.
  if (AllowUpperZeroRule && R.fitsInt32() && R.Lo >= 0 &&
      (Bits >= 32 || R.Hi < (int64_t(1) << (Bits - 1)))) {
    ScopedVisit UZ(Pool);
    if (defZero(Def, Bits, UZ.Set))
      return true;
  }

  switch (Def->opcode()) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul: {
    if (!Options.EnableInductiveArith)
      break;
    // If both operands are sign-extended and the mathematical result
    // provably fits in int32, the 64-bit register operation cannot wrap:
    // the register equals the (canonical) Java value. This is what the
    // range analysis buys on bounded loop counters like `i = i + 1` under
    // an `i < n` guard.
    if (!Def->isW32() || Bits != 32)
      break;
    ValueInterval A = use32Range(Def, 0);
    ValueInterval B = use32Range(Def, 1);
    __int128 MathLo, MathHi;
    switch (Def->opcode()) {
    case Opcode::Add:
      MathLo = static_cast<__int128>(A.Lo) + B.Lo;
      MathHi = static_cast<__int128>(A.Hi) + B.Hi;
      break;
    case Opcode::Sub:
      MathLo = static_cast<__int128>(A.Lo) - B.Hi;
      MathHi = static_cast<__int128>(A.Hi) - B.Lo;
      break;
    default: { // Mul: extremes over the four corner products.
      __int128 P[4] = {static_cast<__int128>(A.Lo) * B.Lo,
                       static_cast<__int128>(A.Lo) * B.Hi,
                       static_cast<__int128>(A.Hi) * B.Lo,
                       static_cast<__int128>(A.Hi) * B.Hi};
      MathLo = MathHi = P[0];
      for (__int128 V : P) {
        MathLo = V < MathLo ? V : MathLo;
        MathHi = V > MathHi ? V : MathHi;
      }
      break;
    }
    }
    if (MathLo < INT32_MIN || MathHi > INT32_MAX)
      break;
    // On a zero-extending target the W32 write clears bits 63:32, so the
    // register equals the mathematical value only when that value is
    // non-negative; an in-range negative result (e.g. 0 + -1) sits
    // zero-extended in the register, which is not sign-extended.
    if (Target.w32ResultsZeroExtend() && MathLo < 0)
      break;
    if (useExtended(Def, 0, 32, Visited) &&
        useExtended(Def, 1, 32, Visited))
      return true;
    break;
  }
  case Opcode::And: {
    // Paper's AnalyzeDEF Case 1 example: AND where either operand is known
    // to have a positive value — precisely, an operand whose register has
    // a zero upper half and a non-negative value bounds the result into
    // [0, hi], which is Bits-extended when hi fits.
    if (!Def->isW32())
      break;
    for (unsigned Index = 0; Index < 2; ++Index) {
      ValueInterval OpRange = use32Range(Def, Index);
      if (OpRange.Lo < 0)
        continue;
      if (Bits < 64 && OpRange.Hi >= (int64_t(1) << (Bits - 1)))
        continue;
      ScopedVisit UZ(Pool);
      if (useZero(Def, Index, 32, UZ.Set))
        return true;
    }
    break;
  }
  case Opcode::Shr: {
    // W32 logical shift with a provably non-zero count: value in
    // [0, 2^31-count), upper half zero by the extract lowering.
    if (!Def->isW32())
      break;
    ValueInterval Count = use32Range(Def, 1);
    if (Count.Lo >= 1 && Count.Hi <= 31) {
      int64_t Hi = static_cast<int64_t>(0xFFFFFFFFull >> Count.Lo);
      if (Bits >= 64 || Hi < (int64_t(1) << (Bits - 1)))
        return true;
    }
    break;
  }
  default:
    break;
  }

  // AnalyzeDEF Case 2: propagation through copies and W32 bitwise ops.
  std::vector<unsigned> PropIndices =
      defPropagatesExtension(F, *Def, Target, ExtKind::Sign, Bits);
  if (!PropIndices.empty()) {
    for (unsigned Index : PropIndices)
      if (!useExtended(Def, Index, Bits, Visited))
        return false;
    return true;
  }

  return false;
}

bool Eliminator::useZero(const Instruction *User, unsigned OpIndex,
                         unsigned Bits, EpochIndexSet &Visited) {
  const auto &Defs = Chains->defsOf(User, OpIndex);
  if (Defs.empty())
    return false;
  for (const Instruction *Def : Defs) {
    if (!Def) {
      if (!entryZero(User->operand(OpIndex), Bits))
        return false;
      continue;
    }
    if (!defZero(Def, Bits, Visited))
      return false;
  }
  return true;
}

bool Eliminator::defZero(const Instruction *Def, unsigned Bits,
                         EpochIndexSet &Visited) {
  if (QueryDepth > MaxQueryDepth)
    return false; // Cross-world cycle: give up conservatively.
  DepthGuard Guard(QueryDepth);

  if (Visited.testAndSet(extKey(Def, ExtKind::Zero, Bits)))
    return true; // Coinductive, as in defExtended.

  if (Def == CurrentExt)
    return useZero(Def, 0, Bits, Visited);

  if (defKnownExtendedStructural(F, *Def, Target, ExtKind::Zero, Bits))
    return true;

  // Range-assisted narrowing: a 32-zero-extended value whose (lower-32)
  // value provably lies in [0, 2^Bits) is also Bits-zero-extended.
  ValueInterval R = Ranges->rangeOfDef(Def);
  if (Bits < 32 && R.fitsInt32() && R.Lo >= 0 &&
      R.Hi < (int64_t(1) << Bits) && defZero(Def, 32, Visited))
    return true;

  switch (Def->opcode()) {
  case Opcode::And: {
    // Zero AND anything is zero: one Bits-zero-extended operand
    // suffices. Each operand probe is speculative: marks it makes are
    // rolled back when the probe fails, as with the reference
    // copy-on-branch sets.
    if (!Def->isW32())
      break;
    for (unsigned Index = 0; Index < 2; ++Index) {
      size_t Mark = Visited.watermark();
      if (useZero(Def, Index, Bits, Visited))
        return true;
      Visited.rollback(Mark);
    }
    break;
  }
  default:
    break;
  }

  // AnalyzeDEF Case 2 for the zero kind: propagation through copies,
  // bitwise operations, and wider conversions.
  std::vector<unsigned> PropIndices =
      defPropagatesExtension(F, *Def, Target, ExtKind::Zero, Bits);
  if (!PropIndices.empty()) {
    bool AllOK = true;
    size_t Mark = Visited.watermark();
    for (unsigned Index : PropIndices)
      if (!useZero(Def, Index, Bits, Visited)) {
        AllOK = false;
        break;
      }
    if (AllOK)
      return true;
    Visited.rollback(Mark);
  }

  // A Bits-sign-extended value below 2^(Bits-1) has all bits >= Bits
  // clear (for Bits == 32: a sign-extended non-negative value has a zero
  // upper half).
  if (R.fitsInt32() && R.Lo >= 0 &&
      (Bits >= 32 || R.Hi < (int64_t(1) << (Bits - 1)))) {
    ScopedVisit Ext(Pool);
    if (defExtended(Def, Bits, Ext.Set, /*AllowUpperZeroRule=*/false))
      return true;
  }
  return false;
}

bool Eliminator::subscriptDefOK(const Instruction *Def, Reg SubscriptReg,
                                uint32_t MaxLen, EpochIndexSet &Visited) {
  assert(Def->num() != Instruction::Unnumbered &&
         "definition outside the analysis snapshot");
  if (Visited.testAndSet(Def->num()))
    return true; // Coinductive over copy/extend cycles.

  // The Theorem 2/4 lower bound: (maxlen-1) - 0x7fffffff. With the Java
  // limit maxlen = 0x7fffffff this is -1, which covers count-down loops.
  int64_t LoBound = static_cast<int64_t>(MaxLen) - 1 - Int32Max;

  if (Def == CurrentExt) {
    // Without the extension under test, the subscript is whatever reaches
    // its source.
    bool AllOK = true;
    for (const Instruction *SrcDef : Chains->defsOf(Def, 0)) {
      if (!SrcDef) {
        AllOK &= entryExtended(Def->operand(0), 32) ||
                 entryZero(Def->operand(0), 32);
        continue;
      }
      size_t Mark = Visited.watermark();
      AllOK &= subscriptDefOK(SrcDef, Def->operand(0), MaxLen, Visited);
      if (!AllOK) {
        Visited.rollback(Mark);
        break;
      }
    }
    return AllOK;
  }

  // Already sign-extended subscript: LS(e) from the bounds check makes the
  // full register equal the checked index.
  {
    ScopedVisit Ext(Pool);
    if (defExtended(Def, 32, Ext.Set)) {
      ++Stats.SubscriptExtended;
      return true;
    }
  }
  // Theorem 1: upper 32 bits zero.
  {
    ScopedVisit UZ(Pool);
    if (defZero(Def, 32, UZ.Set)) {
      ++Stats.SubscriptTheorem1;
      return true;
    }
  }

  switch (Def->opcode()) {
  case Opcode::Add: {
    if (!Def->isW32())
      return false;
    // Theorems 2 and 4: i + j with both parts sign-extended and one part
    // in [(maxlen-1)-0x7fffffff, 0x7fffffff].
    {
      ScopedVisit E0(Pool);
      if (!useExtended(Def, 0, 32, E0.Set))
        return false;
    }
    {
      ScopedVisit E1(Pool);
      if (!useExtended(Def, 1, 32, E1.Set))
        return false;
    }
    ValueInterval R0 = use32Range(Def, 0);
    ValueInterval R1 = use32Range(Def, 1);
    if (R0.Lo >= LoBound || R1.Lo >= LoBound) {
      ++Stats.ArrayUsesProven;
      if (R0.Lo >= 0 || R1.Lo >= 0)
        ++Stats.SubscriptTheorem2; // The Theorem 2 bound suffices.
      else
        ++Stats.SubscriptTheorem4; // Needs the maxlen-derived bound.
      return true;
    }
    return false;
  }
  case Opcode::Sub: {
    if (!Def->isW32())
      return false;
    ValueInterval R1 = use32Range(Def, 1);
    // Theorem 3: i - j with the upper 32 bits of i zero and 0 <= j.
    if (R1.Lo >= 0) {
      ScopedVisit UZ(Pool);
      if (useZero(Def, 0, 32, UZ.Set)) {
        ++Stats.ArrayUsesProven;
        ++Stats.SubscriptTheorem3;
        return true;
      }
    }
    // Theorems 2/4 applied to i + (-j): -j >= LoBound <=> j <= -LoBound.
    {
      ScopedVisit E0(Pool);
      if (!useExtended(Def, 0, 32, E0.Set))
        return false;
    }
    {
      ScopedVisit E1(Pool);
      if (!useExtended(Def, 1, 32, E1.Set))
        return false;
    }
    ValueInterval R0 = use32Range(Def, 0);
    bool NegJBounded = R1.Hi <= -LoBound && R1.Lo > INT32_MIN;
    if (R0.Lo >= LoBound || NegJBounded) {
      ++Stats.ArrayUsesProven;
      if (R0.Lo >= 0 || R1.Hi <= 0)
        ++Stats.SubscriptTheorem2;
      else
        ++Stats.SubscriptTheorem4;
      return true;
    }
    return false;
  }
  case Opcode::Copy:
    if (F.regType(Def->operand(0)) != F.regType(SubscriptReg))
      return false;
    for (const Instruction *SrcDef : Chains->defsOf(Def, 0)) {
      if (!SrcDef) {
        if (!entryExtended(Def->operand(0), 32) &&
            !entryZero(Def->operand(0), 32))
          return false;
        continue;
      }
      if (!subscriptDefOK(SrcDef, Def->operand(0), MaxLen, Visited))
        return false;
    }
    return true;
  default:
    return false;
  }
}

bool Eliminator::analyzeArray(Instruction *Access) {
  // Paper flag semantics: an access already traversed reports "no new
  // requirement".
  assert(Access->num() != Instruction::Unnumbered &&
         "access outside the analysis snapshot");
  if (ArrayVisited.testAndSet(Access->num()))
    return false;

  assert((Access->opcode() == Opcode::ArrayLoad ||
          Access->opcode() == Opcode::ArrayStore) &&
         "analyzeArray on a non-access instruction");

  // Theorem 4's maxlen: the configured limit, sharpened by a statically
  // known array length (Figure 10's size-dependent elimination).
  uint32_t MaxLen =
      std::min(Ranges->maxArrayLen(), Ranges->arrayLengthBound(Access, 0));
  if (MaxLen == 0)
    return false; // Every execution traps on the bounds check.

  bool AllOK = true;
  for (const Instruction *Def : Chains->defsOf(Access, 1)) {
    if (!Def) {
      AllOK &= entryExtended(Access->operand(1), 32) ||
               entryZero(Access->operand(1), 32);
      continue;
    }
    ScopedVisit Visited(Pool);
    AllOK &= subscriptDefOK(Def, Access->operand(1), MaxLen, Visited.Set);
    if (!AllOK)
      break;
  }
  return !AllOK;
}

bool Eliminator::analyzeUse(Instruction *User, unsigned OpIndex,
                            bool AnalyzeArray) {
  unsigned Slot = Chains->slotOf(User, OpIndex);
  if (Slot == ~0u)
    reportFatalError("analyzeUse: operand outside the chain snapshot");
  if (UseVisited.testAndSet(Slot))
    return false;

  // Case 1: the instruction never reads the bits the extension fixes.
  if (upperBitsIrrelevant(F, *User, OpIndex, CurrentBits, &Target))
    return false;

  // The effective address of an array access.
  if (User->isArrayIndexOperand(OpIndex)) {
    if (AnalyzeArray && Options.EnableArrayTheorems && CurrentBits == 32) {
      if (analyzeArray(User)) {
        noteBlocked(User, "array subscript not proven by Theorems 1-4");
        return true;
      }
      return false;
    }
    noteBlocked(User, "array subscript outside AnalyzeARRAY scope");
    return true;
  }

  // Case 2: pass the question through to the destination's uses.
  if (passThroughOperand(F, *User, OpIndex, CurrentBits)) {
    bool ChildArray = AnalyzeArray && arrayAnalyzableThrough(*User);
    std::vector<UseRef> Uses = Chains->usesOf(User);
    for (const UseRef &Use : Uses)
      if (analyzeUse(Use.User, Use.OpIndex, ChildArray))
        return true;
    return false;
  }

  noteBlocked(User, "use reads the extended bits");
  return true; // Requires the extension.
}

bool Eliminator::analyzeExtend(Instruction *Ext) {
  CurrentExt = Ext;
  CurrentBits = extensionBits(Ext->opcode());
  CurrentKind = extensionKind(Ext->opcode());
  UseVisited.clear();
  ArrayVisited.clear();
  BlockingUse = nullptr;
  BlockingReason = nullptr;

  bool Required = false;
  std::vector<UseRef> Uses = Chains->usesOf(Ext);
  for (const UseRef &Use : Uses) {
    if (analyzeUse(Use.User, Use.OpIndex, /*AnalyzeArray=*/true)) {
      Required = true;
      break;
    }
  }
  if (!Required) {
    ++Stats.EliminatedViaUses;
    CurrentExt = nullptr;
    return false;
  }

  // Second chance (the paper's UD-chain loop over AnalyzeDEF): the source
  // may already be extended — in the kind this conversion establishes.
  ScopedVisit Visited(Pool);
  bool SourceCanonical =
      CurrentKind == ExtKind::Sign
          ? useExtended(Ext, 0, CurrentBits, Visited.Set)
          : useZero(Ext, 0, CurrentBits, Visited.Set);
  if (SourceCanonical) {
    ++Stats.EliminatedViaDefs;
    CurrentExt = nullptr;
    return false;
  }

  CurrentExt = nullptr;
  return true;
}

/// Builds the per-extension remark for one analyzeExtend decision. The
/// theorem fields carry the counter deltas of this extension alone, so a
/// stream's field sums reproduce the EliminationStats totals exactly.
static Remark extensionRemark(const Function &F, const Instruction *Ext,
                              const EliminationStats &Before,
                              const EliminationStats &After, bool Kept,
                              const Instruction *BlockingUse,
                              const char *BlockingReason) {
  Remark R;
  R.Pass = "elimination";
  R.Function = F.name();
  R.InstId = Ext->id();
  R.Op = opcodeMnemonic(Ext->opcode());
  if (Kept) {
    R.Decision = RemarkDecision::Retained;
    if (BlockingReason)
      R.Reason = BlockingReason;
    if (BlockingUse) {
      R.BlockingInst = BlockingUse->id();
      R.BlockingOp = opcodeMnemonic(BlockingUse->opcode());
    }
  } else {
    R.Decision = RemarkDecision::Eliminated;
    R.Analysis = After.EliminatedViaDefs > Before.EliminatedViaDefs
                     ? RemarkAnalysis::Def
                     : RemarkAnalysis::Use;
  }
  R.SubscriptExtended = After.SubscriptExtended - Before.SubscriptExtended;
  R.Theorem1 = After.SubscriptTheorem1 - Before.SubscriptTheorem1;
  R.Theorem2 = After.SubscriptTheorem2 - Before.SubscriptTheorem2;
  R.Theorem3 = After.SubscriptTheorem3 - Before.SubscriptTheorem3;
  R.Theorem4 = After.SubscriptTheorem4 - Before.SubscriptTheorem4;
  R.ArrayUsesProven = After.ArrayUsesProven - Before.ArrayUsesProven;
  return R;
}

EliminationStats Eliminator::run(const std::vector<Instruction *> &Order) {
  for (Instruction *Ext : Order) {
    assert(Ext->isConversion() && "order list must contain conversions");
    ++Stats.Analyzed;
    EliminationStats Before = Stats;
    bool Kept = analyzeExtend(Ext);
    if (Options.Remarks)
      Options.Remarks->add(extensionRemark(F, Ext, Before, Stats, Kept,
                                           BlockingUse, BlockingReason));
    if (Kept)
      continue;
    if (Ext->opcode() == Opcode::Trunc32)
      ++Stats.EliminatedTrunc;
    else if (Ext->isZext())
      ++Stats.EliminatedZext;
    else
      ++Stats.EliminatedSext;
    if (Ext->dest() == Ext->operand(0)) {
      // The common `i = extend(i)` form: deleting it is a no-op move.
      Chains->spliceOutDef(Ext);
      Ext->parent()->erase(Ext);
    } else {
      // A value-producing cast such as `%v = sext8 %raw`: the definition
      // must survive as a move (which register allocation coalesces);
      // the chains are unaffected — same destination, same operand.
      Ext->morphToCopy();
    }
    ++Stats.Eliminated;
  }

  // "This phase of sign extension elimination ends with one trivial
  // operation; that is, to eliminate all the dummy sign extensions."
  for (const auto &BB : F.blocks()) {
    std::vector<Instruction *> Dummies;
    for (Instruction &I : *BB)
      if (I.isDummyExtend())
        Dummies.push_back(&I);
    for (Instruction *Dummy : Dummies) {
      Chains->spliceOutDef(Dummy);
      BB->erase(Dummy);
      ++Stats.DummiesRemoved;
    }
  }
  return Stats;
}

} // namespace

EliminationStats
sxe::runElimination(AnalysisCache &A, const std::vector<Instruction *> &Order,
                    const EliminationOptions &Options) {
  Eliminator E(A, Options);
  return E.run(Order);
}
