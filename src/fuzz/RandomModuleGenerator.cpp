//===- fuzz/RandomModuleGenerator.cpp - Seeded random IR modules ------------===//

#include "fuzz/RandomModuleGenerator.h"

#include "ir/IRBuilder.h"

#include <string>

using namespace sxe;

GeneratorOptions GeneratorOptions::small() {
  GeneratorOptions O;
  O.NumI32Arrays = 1;
  O.NumByteArrays = 1;
  O.NumCharArrays = 1;
  O.NumWideArrays = 1;
  O.NumI32Vars = 4;
  O.NumI64Vars = 1;
  O.MaxDepth = 2;
  O.MinStatements = 1;
  O.MaxStatements = 4;
  O.MaxLoopTrips = 4;
  O.LenSpreadLog2 = 2;
  O.MaxHelpers = 1;
  O.MaxHelperParams = 2;
  return O;
}

GeneratorOptions GeneratorOptions::medium() { return GeneratorOptions(); }

GeneratorOptions GeneratorOptions::large() {
  GeneratorOptions O;
  O.NumI32Arrays = 3;
  O.NumByteArrays = 2;
  O.NumCharArrays = 2;
  O.NumWideArrays = 2;
  O.NumI32Vars = 8;
  O.NumI64Vars = 3;
  O.MaxDepth = 4;
  O.MinStatements = 2;
  O.MaxStatements = 7;
  O.MaxLoopTrips = 6;
  O.LenSpreadLog2 = 4;
  O.MaxHelpers = 3;
  O.MaxHelperParams = 3;
  return O;
}

/// Per-function generation state: the structured builder, the variable
/// pools statements draw from, and (in main) the array pool and the
/// checksum accumulator.
struct RandomModuleGenerator::Scope {
  struct ArrayInfo {
    Reg Array;
    Reg Mask;
    Type Elem;
  };

  std::unique_ptr<KernelBuilder> K;
  std::vector<Reg> I32Vars;
  std::vector<Reg> I64Vars;
  std::vector<ArrayInfo> Arrays;
  std::vector<Function *> Callable; ///< Helpers this function may call.
  Reg Acc = NoReg;                  ///< i64 checksum accumulator.

  IRBuilder &ir() { return K->ir(); }
  Function *function() { return K->function(); }
};

RandomModuleGenerator::RandomModuleGenerator(uint64_t Seed,
                                             GeneratorOptions Options)
    : Seed(Seed), Options(Options), R(Seed) {}

std::unique_ptr<Module> RandomModuleGenerator::generate() {
  auto M = std::make_unique<Module>("fuzz_seed_" + std::to_string(Seed));
  Helpers.clear();

  unsigned NumHelpers =
      Options.EnableCalls && Options.MaxHelpers > 0
          ? static_cast<unsigned>(R.nextBelow(Options.MaxHelpers + 1))
          : 0;
  for (unsigned Index = 0; Index < NumHelpers; ++Index)
    buildHelper(*M, Index);
  buildMain(*M);
  return M;
}

Reg RandomModuleGenerator::randI32(Scope &S) {
  return S.I32Vars[R.nextBelow(S.I32Vars.size())];
}

Reg RandomModuleGenerator::randI64(Scope &S) {
  return S.I64Vars[R.nextBelow(S.I64Vars.size())];
}

void RandomModuleGenerator::accumulate32(Scope &S, Reg V32) {
  IRBuilder &B = S.ir();
  Reg Canon = B.sext(32, V32); // Keep the oracle value canonical.
  Reg Wide = S.function()->newReg(Type::I64, "w");
  B.copyTo(Wide, Canon);
  B.binopTo(S.Acc, Opcode::Add, Width::W64, S.Acc, Wide);
}

void RandomModuleGenerator::accumulate64(Scope &S, Reg V64) {
  IRBuilder &B = S.ir();
  B.binopTo(S.Acc, Opcode::Add, Width::W64, S.Acc, V64);
}

void RandomModuleGenerator::emitStatement(Scope &S, unsigned Depth) {
  IRBuilder &B = S.ir();

  enum Kind : unsigned {
    Binop32,    ///< 32-bit binary arithmetic over the i32 pool.
    Shift32,    ///< 32-bit shift by a bounded constant count.
    Div32,      ///< 32-bit div/rem with a forced-odd divisor.
    ArrStore,   ///< Masked-index store (byte/int/wide arrays).
    ArrLoad,    ///< Masked-index load (+ canonical cast for bytes).
    NarrowCast, ///< Java (byte)/(short) narrowing of an i32 value.
    FloatTrip,  ///< i2d -> scale -> d2i round trip.
    Acc32,      ///< Checksum accumulation of an i32 value.
    Copy32,     ///< i32 copy shuffle.
    IfElse,     ///< Two-way branch on a random comparison.
    ForLoop,    ///< Bounded counted loop with a fresh counter.
    DownLoop,   ///< Count-down loop indexing an array.
    DoLoop,     ///< Bounded do/while with a fresh counter.
    Binop64,    ///< 64-bit binary arithmetic over the i64 pool.
    Shift64,    ///< 64-bit shift by a bounded constant count.
    Div64,      ///< 64-bit div/rem with a forced-odd divisor.
    Widen,      ///< i64 = sext32/zext32(i32): explicit width crossing up.
    Narrow64,   ///< i32 = (int)i64: explicit width crossing down.
    Acc64,      ///< Checksum accumulation of an i64 value.
    CallStmt,   ///< Call a helper function, result into a pool variable.
    CharCast,   ///< Java (char) cast: zext16 of an i32 value.
    ByteMask,   ///< v & 0xFF as an explicit zext8 of an i32 value.
    Trunc64,    ///< i64 = trunc32(i64): unsigned 64->32 narrowing.
    NumKinds
  };

  const bool HasArrays = !S.Arrays.empty();
  const bool Wide = !S.I64Vars.empty();
  const bool Nested = Depth > 0;

  auto enabled = [&](unsigned Kd) {
    switch (Kd) {
    case Binop32:
    case NarrowCast:
    case Acc32:
    case Copy32:
    case Shift32:
    case Div32:
      return true;
    case ArrStore:
    case ArrLoad:
      return HasArrays;
    case FloatTrip:
      return Options.EnableFloat;
    case IfElse:
    case ForLoop:
    case DoLoop:
      return Nested;
    case DownLoop:
      return Nested && HasArrays;
    case Binop64:
    case Shift64:
    case Widen:
    case Narrow64:
    case Acc64:
    case Div64:
      return Wide;
    case CallStmt:
      return Options.EnableCalls && !S.Callable.empty();
    case CharCast:
    case ByteMask:
      return Options.EnableUnsignedOps;
    case Trunc64:
      return Wide && Options.EnableUnsignedOps;
    default:
      return false;
    }
  };

  unsigned Kd;
  do {
    Kd = static_cast<unsigned>(R.nextBelow(NumKinds));
  } while (!enabled(Kd));

  switch (Kd) {
  case Binop32: {
    static const Opcode Ops[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                 Opcode::And, Opcode::Or,  Opcode::Xor};
    B.binopTo(randI32(S), Ops[R.nextBelow(6)], Width::W32, randI32(S),
              randI32(S));
    break;
  }
  case Shift32: {
    static const Opcode Ops[] = {Opcode::Shl, Opcode::Shr, Opcode::Sar};
    Reg Count = B.constI32(static_cast<int32_t>(R.nextBelow(31)));
    B.binopTo(randI32(S), Ops[R.nextBelow(3)], Width::W32, randI32(S),
              Count);
    break;
  }
  case Div32: { // Non-zero divisor: d = v | 1 is odd, hence non-zero.
    Reg One = B.constI32(1);
    Reg Divisor = B.or32(randI32(S), One);
    B.binopTo(randI32(S), R.nextChance(1, 2) ? Opcode::Div : Opcode::Rem,
              Width::W32, randI32(S), Divisor);
    break;
  }
  case ArrStore: {
    const Scope::ArrayInfo &A = S.Arrays[R.nextBelow(S.Arrays.size())];
    Reg Idx = B.and32(randI32(S), A.Mask);
    Reg Value = A.Elem == Type::I64 && Wide && R.nextChance(1, 2)
                    ? randI64(S)
                    : randI32(S);
    B.arrayStore(A.Elem, A.Array, Idx, Value);
    break;
  }
  case ArrLoad: {
    const Scope::ArrayInfo &A = S.Arrays[R.nextBelow(S.Arrays.size())];
    Reg Idx = B.and32(randI32(S), A.Mask);
    if (A.Elem == Type::I8) {
      // Java byte loads are sign-extending; express that explicitly so
      // the oracle value is canonical on every target model.
      Reg Raw = B.arrayLoad(Type::I8, A.Array, Idx);
      Reg V = B.sext(8, Raw);
      B.copyTo(randI32(S), V);
    } else if (A.Elem == Type::U16) {
      // Java char loads are zero-extending; same explicit-cast discipline.
      Reg Raw = B.arrayLoad(Type::U16, A.Array, Idx);
      Reg V = B.zext16(Raw);
      B.copyTo(randI32(S), V);
    } else if (A.Elem == Type::I64) {
      if (Wide) {
        B.arrayLoadTo(randI64(S), Type::I64, A.Array, Idx);
      } else {
        Reg Raw = B.arrayLoad(Type::I64, A.Array, Idx);
        Reg V = B.sext(32, Raw); // (int) of the wide element.
        B.copyTo(randI32(S), V);
      }
    } else {
      B.arrayLoadTo(randI32(S), Type::I32, A.Array, Idx);
    }
    break;
  }
  case NarrowCast: {
    Reg V = B.sext(R.nextChance(1, 2) ? 8 : 16, randI32(S));
    B.copyTo(randI32(S), V);
    break;
  }
  case FloatTrip: {
    Reg D = B.i2d(randI32(S));
    Reg Scale = B.constF64(1.0 + static_cast<double>(R.nextBelow(8)));
    Reg Scaled = B.fmul(D, Scale);
    B.d2iTo(randI32(S), Scaled);
    break;
  }
  case Acc32:
    accumulate32(S, randI32(S));
    break;
  case Copy32:
    B.copyTo(randI32(S), randI32(S));
    break;
  case IfElse: {
    // Mixed signed/unsigned predicates: an unsigned W32 compare reads the
    // operands' low words as unsigned, the class of use zext elimination
    // must reason about.
    static const CmpPred Preds[] = {CmpPred::SLT, CmpPred::SLE, CmpPred::EQ,
                                    CmpPred::NE,  CmpPred::ULT, CmpPred::UGE};
    unsigned NumPreds = Options.EnableUnsignedOps ? 6 : 4;
    Reg C = B.cmp32(Preds[R.nextBelow(NumPreds)], randI32(S), randI32(S));
    if (R.nextChance(1, 2))
      S.K->ifThen(C, [&] { emitBlock(S, Depth - 1); });
    else
      S.K->ifThenElse(C, [&] { emitBlock(S, Depth - 1); },
                      [&] { emitBlock(S, Depth - 1); });
    break;
  }
  case ForLoop: {
    Reg Counter = S.function()->newReg(Type::I32, "loop");
    Reg Zero = B.constI32(0);
    Reg Trips =
        B.constI32(static_cast<int32_t>(1 + R.nextBelow(Options.MaxLoopTrips)));
    S.K->forUp(Counter, Zero, Trips, [&] { emitBlock(S, Depth - 1); });
    break;
  }
  case DownLoop: {
    const Scope::ArrayInfo &A = S.Arrays[R.nextBelow(S.Arrays.size())];
    Reg Counter = S.function()->newReg(Type::I32, "down");
    Reg Zero = B.constI32(0);
    Reg Trips =
        B.constI32(static_cast<int32_t>(2 + R.nextBelow(Options.MaxLoopTrips)));
    S.K->forDown(Counter, Trips, Zero, [&] {
      Reg Idx = B.and32(Counter, A.Mask);
      Reg V = B.arrayLoad(A.Elem, A.Array, Idx);
      if (A.Elem == Type::I8) {
        Reg Canon = B.sext(8, V);
        B.copyTo(randI32(S), Canon);
      } else if (A.Elem == Type::U16) {
        Reg Canon = B.zext16(V);
        B.copyTo(randI32(S), Canon);
      } else if (A.Elem == Type::I64) {
        Reg Canon = B.sext(32, V);
        B.copyTo(randI32(S), Canon);
      } else {
        B.copyTo(randI32(S), V);
      }
    });
    break;
  }
  case DoLoop: {
    Reg Counter = S.K->varI32(0, "do");
    Reg One = B.constI32(1);
    Reg Trips =
        B.constI32(static_cast<int32_t>(1 + R.nextBelow(Options.MaxLoopTrips)));
    S.K->doWhile(
        [&] {
          emitBlock(S, Depth - 1);
          B.binopTo(Counter, Opcode::Add, Width::W32, Counter, One);
        },
        [&] { return B.cmp32(CmpPred::SLT, Counter, Trips); });
    break;
  }
  case Binop64: {
    static const Opcode Ops[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                 Opcode::And, Opcode::Or,  Opcode::Xor};
    B.binopTo(randI64(S), Ops[R.nextBelow(6)], Width::W64, randI64(S),
              randI64(S));
    break;
  }
  case Shift64: {
    static const Opcode Ops[] = {Opcode::Shl, Opcode::Shr, Opcode::Sar};
    Reg Count = B.constI64(static_cast<int64_t>(R.nextBelow(63)));
    B.binopTo(randI64(S), Ops[R.nextBelow(3)], Width::W64, randI64(S),
              Count);
    break;
  }
  case Div64: {
    Reg One = B.constI64(1);
    Reg Divisor = B.binop(Opcode::Or, Width::W64, randI64(S), One);
    B.binopTo(randI64(S), R.nextChance(1, 2) ? Opcode::Div : Opcode::Rem,
              Width::W64, randI64(S), Divisor);
    break;
  }
  case Widen: {
    Reg Src = randI32(S);
    if (R.nextChance(1, 2))
      B.sextTo(randI64(S), 32, Src);
    else
      B.zext32To(randI64(S), Src);
    break;
  }
  case Narrow64:
    B.sextTo(randI32(S), 32, randI64(S)); // Java's (int) of a long.
    break;
  case Acc64:
    accumulate64(S, randI64(S));
    break;
  case CharCast: {
    // Java's (char) cast: the canonical value is zero-extended at 16.
    Reg C = B.zext16(randI32(S));
    B.copyTo(randI32(S), C);
    break;
  }
  case ByteMask: {
    // v & 0xFF expressed as zext8 so the eliminator sees the conversion.
    Reg Z = B.zext8(randI32(S));
    B.copyTo(randI32(S), Z);
    break;
  }
  case Trunc64: {
    Reg T = B.trunc32(randI64(S));
    if (R.nextChance(1, 2))
      B.copyTo(randI64(S), T);
    else
      accumulate64(S, T);
    break;
  }
  case CallStmt: {
    Function *Callee = S.Callable[R.nextBelow(S.Callable.size())];
    std::vector<Reg> Args;
    for (unsigned Index = 0; Index < Callee->numParams(); ++Index)
      Args.push_back(Callee->regType(Index) == Type::I64 ? randI64(S)
                                                         : randI32(S));
    Reg Dest =
        Callee->returnType() == Type::I64 ? randI64(S) : randI32(S);
    B.callTo(Dest, Callee, Args);
    break;
  }
  default:
    break;
  }
}

void RandomModuleGenerator::emitBlock(Scope &S, unsigned Depth) {
  unsigned Span = Options.MaxStatements >= Options.MinStatements
                      ? Options.MaxStatements - Options.MinStatements + 1
                      : 1;
  unsigned Statements =
      Options.MinStatements + static_cast<unsigned>(R.nextBelow(Span));
  for (unsigned Index = 0; Index < Statements; ++Index)
    emitStatement(S, Depth);
}

void RandomModuleGenerator::emitChecksum(Scope &S) {
  IRBuilder &B = S.ir();
  // Fold every observable piece of program state into the accumulator:
  // a masked window of each array, then every pool variable.
  for (const Scope::ArrayInfo &A : S.Arrays) {
    Reg I = S.function()->newReg(Type::I32, "ci");
    Reg Zero = B.constI32(0);
    Reg Eight = B.constI32(8);
    S.K->forUp(I, Zero, Eight, [&] {
      Reg Idx = B.and32(I, A.Mask);
      Reg V = B.arrayLoad(A.Elem, A.Array, Idx);
      if (A.Elem == Type::I8) {
        accumulate32(S, B.sext(8, V));
      } else if (A.Elem == Type::U16) {
        accumulate32(S, B.zext16(V));
      } else if (A.Elem == Type::I64) {
        accumulate64(S, V);
      } else {
        accumulate32(S, V);
      }
    });
  }
  for (Reg V : S.I32Vars)
    accumulate32(S, V);
  for (Reg V : S.I64Vars)
    accumulate64(S, V);
}

void RandomModuleGenerator::buildHelper(Module &M, unsigned Index) {
  const bool WidePool = Options.NumI64Vars > 0;
  Type RetTy = WidePool && R.nextChance(1, 3) ? Type::I64 : Type::I32;
  Function *F = M.createFunction("helper" + std::to_string(Index), RetTy);

  unsigned NumParams =
      1 + static_cast<unsigned>(R.nextBelow(
              Options.MaxHelperParams > 0 ? Options.MaxHelperParams : 1));
  std::vector<Type> ParamTypes;
  for (unsigned P = 0; P < NumParams; ++P) {
    Type Ty = WidePool && R.nextChance(1, 4) ? Type::I64 : Type::I32;
    ParamTypes.push_back(Ty);
    F->addParam(Ty, 'p' + std::to_string(P));
  }

  Scope S;
  S.K = std::make_unique<KernelBuilder>(F);
  S.Callable.assign(Helpers.begin(), Helpers.end());

  // Parameters arrive canonically extended per the calling convention, so
  // they join the pools directly; pad the pools with fresh state.
  for (unsigned P = 0; P < NumParams; ++P) {
    if (ParamTypes[P] == Type::I64)
      S.I64Vars.push_back(P);
    else
      S.I32Vars.push_back(P);
  }
  for (unsigned V = 0; V < 2; ++V)
    S.I32Vars.push_back(S.K->varI32(static_cast<int32_t>(R.next()),
                                    'h' + std::to_string(V)));
  if (WidePool)
    S.I64Vars.push_back(
        S.K->varI64(static_cast<int64_t>(R.next()), "hw"));
  S.Acc = S.K->varI64(0, "hacc");

  emitBlock(S, Options.MaxDepth > 1 ? 1 : 0);

  // Return the accumulated state, narrowed for i32-returning helpers so
  // the returned value is the canonical Java int.
  IRBuilder &B = S.ir();
  for (Reg V : S.I32Vars)
    accumulate32(S, V);
  for (Reg V : S.I64Vars)
    accumulate64(S, V);
  if (RetTy == Type::I64) {
    B.ret(S.Acc);
  } else {
    Reg Narrow = B.sext(32, S.Acc, "hret");
    B.ret(Narrow);
  }
  Helpers.push_back(F);
}

void RandomModuleGenerator::buildMain(Module &M) {
  Function *F = M.createFunction("main", Type::I64);

  Scope S;
  S.K = std::make_unique<KernelBuilder>(F);
  S.Callable.assign(Helpers.begin(), Helpers.end());
  IRBuilder &B = S.ir();

  auto makeArray = [&](Type Elem, unsigned SpreadLog2, const char *Name) {
    int32_t Len = 8 << R.nextBelow(SpreadLog2 > 0 ? SpreadLog2 : 1);
    Reg LenReg = B.constI32(Len);
    Reg Array = B.newArray(Elem, LenReg, Name);
    S.K->fillLCG(Array, LenReg, static_cast<int32_t>(R.next() & 0x7FFFFFFF),
                 Elem);
    S.Arrays.push_back({Array, B.constI32(Len - 1), Elem});
  };

  for (unsigned Index = 0; Index < Options.NumI32Arrays; ++Index)
    makeArray(Type::I32, Options.LenSpreadLog2, "arr");
  for (unsigned Index = 0; Index < Options.NumByteArrays; ++Index)
    makeArray(Type::I8, Options.LenSpreadLog2 > 1 ? Options.LenSpreadLog2 - 1
                                                  : 1,
              "bytes");
  if (Options.EnableUnsignedOps)
    for (unsigned Index = 0; Index < Options.NumCharArrays; ++Index)
      makeArray(Type::U16, Options.LenSpreadLog2 > 1
                               ? Options.LenSpreadLog2 - 1
                               : 1,
                "chars");
  for (unsigned Index = 0; Index < Options.NumWideArrays; ++Index)
    makeArray(Type::I64, Options.LenSpreadLog2 > 1 ? Options.LenSpreadLog2 - 1
                                                   : 1,
              "wide");

  for (unsigned Index = 0; Index < Options.NumI32Vars; ++Index)
    S.I32Vars.push_back(S.K->varI32(static_cast<int32_t>(R.next()),
                                    'v' + std::to_string(Index)));
  for (unsigned Index = 0; Index < Options.NumI64Vars; ++Index)
    S.I64Vars.push_back(S.K->varI64(static_cast<int64_t>(R.next()),
                                    'g' + std::to_string(Index)));
  S.Acc = S.K->varI64(0, "acc");

  emitBlock(S, Options.MaxDepth);
  emitChecksum(S);
  B.ret(S.Acc);
}
