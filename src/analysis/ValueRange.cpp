//===- analysis/ValueRange.cpp - Integer value range analysis ----------------===//

#include "analysis/ValueRange.h"

#include "support/Error.h"

#include <algorithm>
#include <deque>

using namespace sxe;

namespace {

/// Interval of a 64-bit register result, given a 128-bit interval of the
/// mathematical result: exact when no int64 wraparound is possible. A
/// result past either bound wraps to the other end, so only the full
/// range is sound then.
ValueInterval wrapToInt64(__int128 Lo, __int128 Hi) {
  if (Lo < INT64_MIN || Hi > INT64_MAX)
    return ValueInterval::full64();
  return {static_cast<int64_t>(Lo), static_cast<int64_t>(Hi)};
}

/// Interval of the lower-32-bit signed interpretation, given an interval of
/// the mathematical result: exact when no int32 wraparound is possible.
ValueInterval wrapToInt32(ValueInterval R) {
  if (R.fitsInt32())
    return R;
  return ValueInterval::full32();
}

ValueInterval addIntervals(ValueInterval A, ValueInterval B) {
  return wrapToInt64(static_cast<__int128>(A.Lo) + B.Lo,
                      static_cast<__int128>(A.Hi) + B.Hi);
}

ValueInterval subIntervals(ValueInterval A, ValueInterval B) {
  return wrapToInt64(static_cast<__int128>(A.Lo) - B.Hi,
                      static_cast<__int128>(A.Hi) - B.Lo);
}

ValueInterval mulIntervals(ValueInterval A, ValueInterval B) {
  __int128 Products[4] = {
      static_cast<__int128>(A.Lo) * B.Lo,
      static_cast<__int128>(A.Lo) * B.Hi,
      static_cast<__int128>(A.Hi) * B.Lo,
      static_cast<__int128>(A.Hi) * B.Hi,
  };
  __int128 Lo = Products[0], Hi = Products[0];
  for (__int128 P : Products) {
    Lo = P < Lo ? P : Lo;
    Hi = P > Hi ? P : Hi;
  }
  return wrapToInt64(Lo, Hi);
}

ValueInterval negInterval(ValueInterval A) {
  if (A.Lo == INT64_MIN)
    return ValueInterval::full64();
  return {-A.Hi, -A.Lo};
}

} // namespace

ValueRange::ValueRange(Function &F, const CFG &Cfg,
                       const UseDefChains &Chains, const TargetInfo &Target,
                       uint32_t MaxArrayLen, bool UseGuards)
    : F(F), Chains(Chains), Target(Target), MaxLen(MaxArrayLen) {
  const Function::Numbering &Numbers = F.numberInstructions();
  DefRanges.assign(Numbers.NumInsts, ValueInterval());
  HasRange.assign(Numbers.NumInsts, 0);
  if (UseGuards)
    collectGuards(Cfg);
  runFixpoint();
}

void ValueRange::runFixpoint() {
  // Ascending fixpoint from bottom with widening, followed by two
  // narrowing sweeps. Ascending intermediate values are under-
  // approximations; soundness comes from the convergence condition
  // (transfer(final) included in final for every definition, including
  // the guard bounds, which repush their dependents through
  // GuardBoundDependents) plus meet-only narrowing.
  const size_t NumInsts = DefRanges.size();
  std::vector<Instruction *> Defs;
  std::vector<std::vector<Instruction *>> ChainUsers(NumInsts);
  for (const auto &BB : F.blocks())
    for (Instruction &I : *BB)
      if (I.hasDest())
        Defs.push_back(&I);
  for (Instruction *I : Defs)
    for (const UseRef &Use : Chains.usesOf(I))
      if (Use.User->hasDest())
        ChainUsers[I->num()].push_back(Use.User);

  constexpr unsigned WidenAt = 8;
  constexpr unsigned HardLimit = 64;

  Ascending = true;
  std::deque<Instruction *> Worklist(Defs.begin(), Defs.end());
  std::vector<char> InWorklist(NumInsts, 0);
  for (Instruction *I : Defs)
    InWorklist[I->num()] = 1;
  std::vector<unsigned> Updates(NumInsts, 0);

  auto pushUsers = [&](Instruction *I) {
    auto pushOne = [&](Instruction *User) {
      char &Flag = InWorklist[User->num()];
      if (!Flag) {
        Flag = 1;
        Worklist.push_back(User);
      }
    };
    for (Instruction *User : ChainUsers[I->num()])
      pushOne(User);
    if (I->num() < GuardBoundDependents.size())
      for (Instruction *User : GuardBoundDependents[I->num()])
        pushOne(User);
  };

  while (!Worklist.empty()) {
    Instruction *I = Worklist.front();
    Worklist.pop_front();
    InWorklist[I->num()] = 0;

    SawBottom = false;
    ValueInterval T = transfer(*I);
    if (SawBottom)
      continue; // Operands still bottom; a later update repushes us.

    const uint32_t N = I->num();
    ValueInterval New = HasRange[N] ? DefRanges[N].join(T) : T;
    if (HasRange[N] && New == DefRanges[N])
      continue;

    unsigned &Count = Updates[N];
    ++Count;
    if (Count > HardLimit) {
      // Safety backstop: jump to top (stopping mid-ascent would leave an
      // unsound under-approximation).
      New = typeRange(F.regType(I->dest()));
    } else if (Count >= WidenAt && HasRange[N]) {
      if (New.Lo < DefRanges[N].Lo)
        New.Lo = typeRange(F.regType(I->dest())).Lo;
      if (New.Hi > DefRanges[N].Hi)
        New.Hi = typeRange(F.regType(I->dest())).Hi;
      if (New == DefRanges[N])
        continue;
    }
    DefRanges[N] = New;
    HasRange[N] = 1;
    pushUsers(I);
  }

  // Narrowing: recover bounds the widening overshot (e.g. guard-clipped
  // loop counters). Transfer now reads sound over-approximations, so
  // meeting with the current value preserves soundness.
  Ascending = false;
  for (unsigned Round = 0; Round < 2; ++Round) {
    for (Instruction *I : Defs) {
      ValueInterval T = transfer(*I);
      const uint32_t N = I->num();
      ValueInterval Cur =
          HasRange[N] ? DefRanges[N] : typeRange(F.regType(I->dest()));
      DefRanges[N] = T.meet(Cur);
      HasRange[N] = 1;
    }
  }
}

ValueInterval ValueRange::typeRange(Type Ty) const {
  // The DEFAULT for a register of unknown provenance. A narrow register
  // does NOT always hold a canonical value of its type: a zero-extending
  // byte load leaves [0,255] in an I8 register until a sext8
  // canonicalizes it, so every sub-register integer register defaults to
  // the full lower-32 range. Canonical bounds apply only where the ABI
  // enforces them (parameters, call results) — see canonicalTypeRange.
  switch (Ty) {
  case Type::I8:
  case Type::I16:
  case Type::U16:
  case Type::I32:
    return ValueInterval::full32();
  case Type::I64:
    return ValueInterval::full64();
  case Type::ArrayRef:
    return {0, static_cast<int64_t>(MaxLen)};
  default:
    return ValueInterval::full64();
  }
}

/// Range of a value the ABI guarantees canonical for its type.
static ValueInterval canonicalTypeRange(Type Ty, uint32_t MaxLen) {
  switch (Ty) {
  case Type::I8:
    return {-128, 127};
  case Type::I16:
    return {-32768, 32767};
  case Type::U16:
    return {0, 65535};
  case Type::I32:
    return ValueInterval::full32();
  case Type::I64:
    return ValueInterval::full64();
  case Type::ArrayRef:
    return {0, static_cast<int64_t>(MaxLen)};
  default:
    return ValueInterval::full64();
  }
}

ValueInterval ValueRange::entryRange(Reg R) const {
  // Parameters carry canonical values of their declared type (the ABI
  // extends them); locals are zero-initialized at frame entry, like JVM
  // locals.
  if (R < F.numParams())
    return canonicalTypeRange(F.regType(R), MaxLen);
  if (F.regType(R) == Type::ArrayRef)
    return {0, 0}; // A null array reference; accesses through it trap.
  return ValueInterval::exact(0);
}

ValueInterval ValueRange::rangeOfDef(const Instruction *Def) const {
  if (hasRange(Def))
    return DefRanges[Def->num()];
  return typeRange(F.regType(Def->dest()));
}

ValueInterval ValueRange::rangeOfUse(const Instruction *User,
                                     unsigned OpIndex) const {
  return operandRange(*User, OpIndex);
}

ValueInterval ValueRange::joinOperand(const Instruction &I,
                                      unsigned OpIndex) const {
  const auto &Defs = Chains.defsOf(&I, OpIndex);
  Type OpTy = F.regType(I.operand(OpIndex));
  if (Defs.empty()) {
    // No chain information (unreachable code): top, and no ascending
    // update (the value cannot matter).
    if (Ascending)
      SawBottom = true;
    return typeRange(OpTy);
  }
  bool First = true;
  ValueInterval Result;
  for (const Instruction *D : Defs) {
    ValueInterval R;
    if (!D) {
      R = entryRange(I.operand(OpIndex));
    } else if (Ascending) {
      if (!hasRange(D))
        continue; // Bottom: identity of the join.
      R = DefRanges[D->num()];
    } else {
      R = rangeOfDef(D);
    }
    Result = First ? R : Result.join(R);
    First = false;
  }
  if (First) {
    if (Ascending)
      SawBottom = true;
    return typeRange(OpTy);
  }
  return Result;
}

ValueInterval ValueRange::operandRange(const Instruction &I,
                                       unsigned OpIndex) const {
  return refineWithGuards(I, OpIndex, joinOperand(I, OpIndex));
}

void ValueRange::collectGuards(const CFG &Cfg) {
  // Per-block first definition positions, used to decide whether a use
  // precedes any redefinition within its block. The positions are the
  // dense instruction numbers: they are assigned in layout order, so they
  // serve directly as instruction ordinals.
  FirstDefOrdinal.assign(F.numBlocks(), {});
  for (const auto &BB : F.blocks()) {
    auto &FirstDefs = FirstDefOrdinal[BB->num()];
    for (const Instruction &I : *BB)
      if (I.hasDest() && !FirstDefs.count(I.dest()))
        FirstDefs[I.dest()] = I.num();
  }

  const auto &RPO = Cfg.reversePostOrder();
  size_t NumBlocks = F.numBlocks();

  for (BasicBlock *GB : RPO) {
    Instruction *Term = GB->terminator();
    if (!Term || Term->opcode() != Opcode::Br)
      continue;
    const auto &CondDefs = Chains.defsOf(Term, 0);
    if (CondDefs.size() != 1 || !CondDefs[0])
      continue;
    const Instruction *Cmp = CondDefs[0];
    if (Cmp->opcode() != Opcode::Cmp || !Cmp->isW32() ||
        Cmp->parent() != GB)
      continue;
    switch (Cmp->pred()) {
    case CmpPred::SLT:
    case CmpPred::SLE:
    case CmpPred::SGT:
    case CmpPred::SGE:
    case CmpPred::EQ:
    case CmpPred::NE:
      break;
    default:
      continue; // Unsigned predicates carry no signed-range information.
    }
    if (Term->successor(0) == Term->successor(1))
      continue;

    for (unsigned VarOp = 0; VarOp < 2; ++VarOp) {
      Reg Var = Cmp->operand(VarOp);
      if (!isIntegerType(F.regType(Var)))
        continue;
      // The guard only speaks about Var's value at the compare: reject if
      // Var is redefined between the compare and the branch.
      bool Redefined = false;
      bool SeenCmp = false;
      for (const Instruction &I : *GB) {
        if (&I == Cmp) {
          SeenCmp = true;
          continue;
        }
        if (SeenCmp && I.hasDest() && I.dest() == Var)
          Redefined = true;
      }
      if (Redefined)
        continue;

      CmpPred BasePred =
          VarOp == 0 ? Cmp->pred() : swapCmpPred(Cmp->pred());
      for (unsigned EdgeIndex = 0; EdgeIndex < 2; ++EdgeIndex) {
        CmpPred EffPred =
            EdgeIndex == 0 ? BasePred : negateCmpPred(BasePred);
        if (EffPred == CmpPred::NE)
          continue; // "v != bound" yields no interval.

        Guard G;
        G.Var = Var;
        G.Pred = EffPred;
        G.Cmp = Cmp;
        G.BoundOpIndex = 1 - VarOp;
        G.ValidIn = DenseBitset(NumBlocks, /*Filled=*/true);

        // Must-dataflow: a block entry is guard-valid when every incoming
        // edge is either the guard edge itself or comes from a guard-valid
        // block with no redefinition of Var.
        BasicBlock *GuardSucc = Term->successor(EdgeIndex);
        G.ValidIn.reset(F.entryBlock()->num());
        auto blockHasDef = [&](const BasicBlock *BB) {
          return BB->num() < FirstDefOrdinal.size() &&
                 FirstDefOrdinal[BB->num()].count(Var) != 0;
        };
        bool Changed = true;
        while (Changed) {
          Changed = false;
          for (BasicBlock *BB : RPO) {
            if (BB == F.entryBlock())
              continue;
            bool Valid = true;
            for (BasicBlock *Pred : Cfg.predecessors(BB)) {
              if (!Cfg.isReachable(Pred))
                continue;
              if (Pred == GB && BB == GuardSucc)
                continue; // The guard edge establishes validity.
              bool PredOut =
                  G.ValidIn.test(Pred->num()) && !blockHasDef(Pred);
              if (!PredOut) {
                Valid = false;
                break;
              }
            }
            if (!Valid && G.ValidIn.test(BB->num())) {
              G.ValidIn.reset(BB->num());
              Changed = true;
            }
          }
        }

        if (GuardsByReg.size() < F.numRegs())
          GuardsByReg.resize(F.numRegs());
        GuardsByReg[Var].push_back(static_cast<unsigned>(Guards.size()));
        Guards.push_back(std::move(G));
      }
    }
  }

  // Worklist edges for the ascending fixpoint: when a definition feeding
  // a guard's bound is updated, every definition that reads the guarded
  // register must be recomputed (its guard constraint may have loosened).
  GuardBoundDependents.assign(DefRanges.size(), {});
  std::vector<std::vector<Instruction *>> DefsReadingReg(F.numRegs());
  for (const auto &BB : F.blocks())
    for (Instruction &I : *BB) {
      if (!I.hasDest())
        continue;
      for (Reg Operand : I.operands())
        DefsReadingReg[Operand].push_back(&I);
    }
  for (const Guard &G : Guards) {
    const std::vector<Instruction *> &Readers = DefsReadingReg[G.Var];
    if (Readers.empty())
      continue;
    for (const Instruction *BoundDef :
         Chains.defsOf(G.Cmp, G.BoundOpIndex)) {
      if (!BoundDef)
        continue;
      auto &Deps = GuardBoundDependents[BoundDef->num()];
      Deps.insert(Deps.end(), Readers.begin(), Readers.end());
    }
  }
}

ValueInterval ValueRange::guardInterval(const Guard &G) const {
  // Bound range without refinement, to avoid guard recursion.
  ValueInterval B = joinOperand(*G.Cmp, G.BoundOpIndex);
  // The compare reads lower-32 values.
  if (!B.fitsInt32())
    B = ValueInterval::full32();

  switch (G.Pred) {
  case CmpPred::SLT:
    return {INT64_MIN, B.Hi == INT64_MIN ? INT64_MIN : B.Hi - 1};
  case CmpPred::SLE:
    return {INT64_MIN, B.Hi};
  case CmpPred::SGT:
    return {B.Lo == INT64_MAX ? INT64_MAX : B.Lo + 1, INT64_MAX};
  case CmpPred::SGE:
    return {B.Lo, INT64_MAX};
  case CmpPred::EQ:
    return B;
  default:
    return ValueInterval::full64();
  }
}

bool ValueRange::guardValidAt(const Guard &G,
                              const Instruction &User) const {
  const BasicBlock *BB = User.parent();
  if (!BB || BB->num() >= G.ValidIn.size() || !G.ValidIn.test(BB->num()))
    return false;
  // Valid at block entry; invalidated by a redefinition before the use.
  if (BB->num() >= FirstDefOrdinal.size())
    return true;
  const auto &FirstDefs = FirstDefOrdinal[BB->num()];
  auto DefIt = FirstDefs.find(G.Var);
  if (DefIt == FirstDefs.end())
    return true;
  if (User.num() == Instruction::Unnumbered)
    return false; // Inserted after analysis construction: be conservative.
  return DefIt->second >= User.num();
}

ValueInterval ValueRange::refineWithGuards(const Instruction &User,
                                           unsigned OpIndex,
                                           ValueInterval R) const {
  Reg Var = User.operand(OpIndex);
  if (Var >= GuardsByReg.size() || GuardsByReg[Var].empty())
    return R;
  // Guard facts speak about the lower-32 value; only refine ranges that
  // already denote it.
  if (!R.fitsInt32() && isSubRegisterIntType(F.regType(Var)))
    R = ValueInterval::full32();
  for (unsigned Index : GuardsByReg[Var]) {
    const Guard &G = Guards[Index];
    if (!guardValidAt(G, User))
      continue;
    // Guard-bound imprecision must never block an ascending update.
    bool Saved = SawBottom;
    ValueInterval GI = guardInterval(G);
    SawBottom = Saved;
    R = R.meet(GI);
  }
  return R;
}

uint32_t ValueRange::arrayLengthBound(const Instruction *User,
                                      unsigned OpIndex) const {
  assert(F.regType(User->operand(OpIndex)) == Type::ArrayRef &&
         "arrayLengthBound requires an arrayref operand");
  ValueInterval R = operandRange(*User, OpIndex);
  if (R.Hi < 0)
    return 0;
  if (R.Hi > static_cast<int64_t>(MaxLen))
    return MaxLen;
  return static_cast<uint32_t>(R.Hi);
}

ValueInterval ValueRange::transfer(const Instruction &I) const {
  Type DestTy = F.regType(I.dest());
  bool DestNarrow = isSubRegisterIntType(DestTy);

  // A W32 operation into an I64 register: the tracked value is the full
  // register, and the cases below bound only its lower 32 bits. x86-64
  // zero-extends every 32-bit result. Elsewhere the extracts and the
  // divide define the upper half (Shr zero-, Sar/Div/Rem sign-extended),
  // and the rest leave the 64-bit operation's upper half in place.
  if (I.info().HasWidth && I.isW32() && !DestNarrow &&
      I.opcode() != Opcode::Cmp) {
    if (Target.w32ResultsZeroExtend() || I.opcode() == Opcode::Shr)
      return {0, 0xFFFFFFFFll};
    if (I.opcode() == Opcode::Sar || I.opcode() == Opcode::Div ||
        I.opcode() == Opcode::Rem)
      return ValueInterval::full32();
    return typeRange(DestTy);
  }

  // Operand ranges as the operation consumes them: a W32 operation reads
  // the lower 32 bits, so a wide operand projects through wrapToInt32.
  auto Op = [&](unsigned Index) {
    ValueInterval R = operandRange(I, Index);
    if (I.info().HasWidth && I.isW32())
      return wrapToInt32(R);
    return R;
  };
  // Projects the mathematical result interval to the tracked semantics of
  // the destination register.
  auto Project = [&](ValueInterval R) {
    if (I.info().HasWidth && I.isW32())
      R = wrapToInt32(R);
    if (DestNarrow)
      R = wrapToInt32(R).meet(ValueInterval::full32());
    return R;
  };

  switch (I.opcode()) {
  case Opcode::ConstInt:
    return ValueInterval::exact(I.intValue());
  case Opcode::ConstF64:
    return ValueInterval::full64();
  case Opcode::Copy: {
    ValueInterval R = operandRange(I, 0);
    return DestNarrow ? wrapToInt32(R) : R;
  }
  case Opcode::Add:
    return Project(addIntervals(Op(0), Op(1)));
  case Opcode::Sub:
    return Project(subIntervals(Op(0), Op(1)));
  case Opcode::Mul:
    return Project(mulIntervals(Op(0), Op(1)));
  case Opcode::Div: {
    ValueInterval A = Op(0), B = Op(1);
    // Only refine when the divisor has a constant sign excluding zero and
    // MIN / -1 (which wraps) cannot occur.
    if (B.Lo > 0 || B.Hi < 0) {
      int64_t Min = I.isW32() ? INT32_MIN : INT64_MIN;
      if (!(A.Lo == Min && B.Lo <= -1 && B.Hi >= -1)) {
        int64_t C[4] = {A.Lo / B.Lo, A.Lo / B.Hi, A.Hi / B.Lo, A.Hi / B.Hi};
        int64_t Lo = *std::min_element(C, C + 4);
        int64_t Hi = *std::max_element(C, C + 4);
        return Project({Lo, Hi});
      }
    }
    return Project(I.isW32() ? ValueInterval::full32()
                             : ValueInterval::full64());
  }
  case Opcode::Rem: {
    ValueInterval A = Op(0), B = Op(1);
    if (B.Lo > 0 || B.Hi < 0) {
      // |remainder| < |divisor|; computed without negating INT64_MIN.
      int64_t MaxAbs = B.Lo > 0 ? B.Hi - 1 : -(B.Lo + 1);
      int64_t Lo = A.Lo >= 0 ? 0 : -MaxAbs;
      int64_t Hi = A.Hi <= 0 ? 0 : MaxAbs;
      return Project({Lo, Hi});
    }
    return Project(I.isW32() ? ValueInterval::full32()
                             : ValueInterval::full64());
  }
  case Opcode::And: {
    ValueInterval A = Op(0), B = Op(1);
    // x & m with m >= 0 lies in [0, m]; symmetric in the other operand.
    int64_t Hi = INT64_MAX;
    bool Bounded = false;
    if (A.isNonNegative()) {
      Hi = std::min(Hi, A.Hi);
      Bounded = true;
    }
    if (B.isNonNegative()) {
      Hi = std::min(Hi, B.Hi);
      Bounded = true;
    }
    if (Bounded)
      return Project({0, Hi});
    return Project(I.isW32() ? ValueInterval::full32()
                             : ValueInterval::full64());
  }
  case Opcode::Or:
  case Opcode::Xor: {
    ValueInterval A = Op(0), B = Op(1);
    if (A.isNonNegative() && B.isNonNegative()) {
      // or/xor of values below 2^k stays below 2^k (k <= 63).
      uint64_t MaxHi =
          static_cast<uint64_t>(std::max(A.Hi, B.Hi));
      uint64_t Bound = 1;
      while (Bound <= MaxHi)
        Bound <<= 1;
      return Project({0, static_cast<int64_t>(Bound - 1)});
    }
    return Project(I.isW32() ? ValueInterval::full32()
                             : ValueInterval::full64());
  }
  case Opcode::Not:
    // ~x == -x - 1.
    return Project(subIntervals(negInterval(Op(0)), ValueInterval::exact(1)));
  case Opcode::Neg:
    return Project(negInterval(Op(0)));
  case Opcode::Shl: {
    ValueInterval A = Op(0), B = Op(1);
    unsigned MaxShift = I.isW32() ? 31 : 63;
    if (B.Lo == B.Hi && B.Lo >= 0 &&
        B.Lo <= static_cast<int64_t>(MaxShift)) {
      unsigned C = static_cast<unsigned>(B.Lo);
      return Project(wrapToInt64(static_cast<__int128>(A.Lo) << C,
                                  static_cast<__int128>(A.Hi) << C));
    }
    return Project(I.isW32() ? ValueInterval::full32()
                             : ValueInterval::full64());
  }
  case Opcode::Shr: {
    ValueInterval B = Op(1);
    unsigned MaxShift = I.isW32() ? 31 : 63;
    // The lowering extracts from the low bits, so the result is always a
    // zero-filled field; with a provably non-zero count it is non-negative
    // and bounded.
    if (B.Lo >= 1 && B.Hi <= static_cast<int64_t>(MaxShift)) {
      uint64_t FieldMax = I.isW32()
                              ? (0xFFFFFFFFull >> B.Lo)
                              : (~0ull >> B.Lo);
      return Project({0, static_cast<int64_t>(FieldMax)});
    }
    ValueInterval A = Op(0);
    if (A.isNonNegative())
      return Project({0, A.Hi});
    return Project(I.isW32() ? ValueInterval::full32()
                             : ValueInterval::full64());
  }
  case Opcode::Sar: {
    ValueInterval A = Op(0), B = Op(1);
    unsigned MaxShift = I.isW32() ? 31 : 63;
    if (B.Lo >= 0 && B.Hi <= static_cast<int64_t>(MaxShift)) {
      int64_t C[4] = {A.Lo >> B.Lo, A.Lo >> B.Hi, A.Hi >> B.Lo,
                      A.Hi >> B.Hi};
      return Project({*std::min_element(C, C + 4),
                      *std::max_element(C, C + 4)});
    }
    return Project(I.isW32() ? ValueInterval::full32()
                             : ValueInterval::full64());
  }
  case Opcode::Sext8: {
    ValueInterval R = operandRange(I, 0);
    if (R.Lo >= -128 && R.Hi <= 127)
      return R;
    return {-128, 127};
  }
  case Opcode::Sext16: {
    ValueInterval R = operandRange(I, 0);
    if (R.Lo >= -32768 && R.Hi <= 32767)
      return R;
    return {-32768, 32767};
  }
  case Opcode::Zext8: {
    ValueInterval R = operandRange(I, 0);
    if (R.Lo >= 0 && R.Hi <= 255)
      return R;
    return {0, 255};
  }
  case Opcode::Zext16: {
    ValueInterval R = operandRange(I, 0);
    if (R.Lo >= 0 && R.Hi <= 65535)
      return R;
    return {0, 65535};
  }
  case Opcode::Sext32:
  case Opcode::Zext32:
  case Opcode::Trunc32: {
    // Lower 32 bits unchanged. For a narrow destination the tracked
    // semantics (lower-32 interpretation) are exactly the source's.
    ValueInterval R = wrapToInt32(operandRange(I, 0));
    if (DestNarrow)
      return R;
    // Wide destination: sext32 yields the int32 value itself; zext32 the
    // unsigned reinterpretation.
    if (I.opcode() == Opcode::Sext32)
      return R;
    if (R.isNonNegative())
      return R;
    return {0, 0xFFFFFFFFll};
  }
  case Opcode::JustExtended: {
    // Dummy after an array access: the index was checked against the array
    // length, so it lies in [0, bound-1]; IntValue carries the statically
    // known length bound (0 = unknown, fall back to the configured max).
    ValueInterval R = wrapToInt32(operandRange(I, 0));
    int64_t LenBound = I.intValue() > 0
                           ? std::min<int64_t>(I.intValue(), MaxLen)
                           : static_cast<int64_t>(MaxLen);
    return R.meet({0, LenBound - 1});
  }
  case Opcode::Cmp:
  case Opcode::FCmp:
    return {0, 1};
  case Opcode::I2D:
    return ValueInterval::full64();
  case Opcode::D2I:
    return ValueInterval::full32();
  case Opcode::Call:
    // Call results are canonical per the calling convention.
    return canonicalTypeRange(
        I.callee() ? I.callee()->returnType() : Type::I64, MaxLen);
  case Opcode::NewArray: {
    // A successful newarray has a length in [0, MaxLen].
    ValueInterval L = wrapToInt32(operandRange(I, 0));
    int64_t Lo = std::max<int64_t>(L.Lo, 0);
    int64_t Hi = std::min<int64_t>(std::max<int64_t>(L.Hi, 0),
                                   static_cast<int64_t>(MaxLen));
    return {Lo, Hi};
  }
  case Opcode::ArrayLen: {
    ValueInterval L = operandRange(I, 0); // Length interval of the array.
    return L.meet({0, static_cast<int64_t>(MaxLen)});
  }
  case Opcode::ArrayLoad:
    switch (I.type()) {
    case Type::I8:
      return {0, 255}; // Byte loads zero-extend on both targets.
    case Type::I16:
      return Target.loadSignExtends(Type::I16)
                 ? ValueInterval{-32768, 32767}
                 : ValueInterval{0, 65535};
    case Type::U16:
      return {0, 65535};
    case Type::I32:
      return ValueInterval::full32();
    default:
      return ValueInterval::full64();
    }
  default:
    return typeRange(DestTy);
  }
}
