//===- interp/Interpreter.cpp - IR interpreter -------------------------------===//

#include "interp/Interpreter.h"

#include "ir/Semantics.h"
#include "ir/Verifier.h"
#include "support/Error.h"
#include "target/CostModel.h"

#include <algorithm>
#include <unordered_map>

using namespace sxe;

const char *sxe::trapKindName(TrapKind Kind) {
  switch (Kind) {
  case TrapKind::None:
    return "none";
  case TrapKind::NullArray:
    return "null-array";
  case TrapKind::BoundsCheck:
    return "bounds-check";
  case TrapKind::NegativeArraySize:
    return "negative-array-size";
  case TrapKind::AllocationLimit:
    return "allocation-limit";
  case TrapKind::DivByZero:
    return "div-by-zero";
  case TrapKind::ExplicitTrap:
    return "explicit-trap";
  case TrapKind::WildAddress:
    return "wild-address";
  case TrapKind::StackOverflow:
    return "stack-overflow";
  case TrapKind::StepLimit:
    return "step-limit";
  }
  sxeUnreachable("invalid TrapKind enumerator");
}

namespace {

/// What a decoded instruction does to the value it writes, after its
/// operation: x86-64's implicit zero-extension of a 32-bit register write
/// (Machine semantics), Java's canonicalization to the destination
/// register's type, or nothing. A Ret's post-op canonicalizes the returned
/// value to the function's return type under Java semantics. Every case is
/// a mask followed by a sign-extending shift pair, so applying one costs no
/// branch.
struct PostOp {
  uint64_t Mask = ~0ull;
  uint8_t SignShift = 0; ///< 64 minus the width to sign-extend from.
};

constexpr PostOp NoPostOp{};
constexpr PostOp Zext32PostOp{0xFFFFFFFF, 0};

/// The post-op that canonical(Value, Ty) performs.
PostOp canonicalPostOp(Type Ty) {
  switch (Ty) {
  case Type::I8:
    return {~0ull, 56};
  case Type::I16:
    return {~0ull, 48};
  case Type::U16:
    return {0xFFFF, 0};
  case Type::I32:
    return {~0ull, 32};
  default:
    return NoPostOp;
  }
}

inline uint64_t applyPostOp(PostOp Post, uint64_t Value) {
  return static_cast<uint64_t>(
      static_cast<int64_t>((Value & Post.Mask) << Post.SignShift) >>
      Post.SignShift);
}

/// One decoded instruction: everything its handler reads, resolved once.
struct Slot {
  Opcode Op = Opcode::Trap;
  Width W = Width::W64;
  CmpPred Pred = CmpPred::EQ;
  Type Ty = Type::Void; ///< NewArray's element type.
  uint32_t Cost = 0;    ///< instructionCycleCost on the decoded target.
  Reg Dest = NoReg;
  Reg Src[3] = {NoReg, NoReg, NoReg};
  /// Br/Jmp: successor slot indices. Call: Succ[0] is the callee's index in
  /// DecodedProgram::Funcs and Succ[1] its first argument in
  /// DecodedProgram::CallArgs.
  uint32_t Succ[2] = {0, 0};
  uint32_t NumOperands = 0; ///< Ret's 0 or 1; Call's argument count.
  uint32_t BranchIndex = 0; ///< Br: its per-run profile counter pair.
  uint64_t Imm = 0;         ///< ConstInt value; ConstF64 bits.
  PostOp Post;
};

/// One decoded function.
struct DecodedFunction {
  const Function *F = nullptr;
  uint32_t Entry = 0; ///< Slot of the entry block's first instruction.
  uint32_t NumRegs = 0;
};

} // namespace

/// The module decoded for one InterpOptions: every function's blocks laid
/// out back to back in one slot array, entry block first.
struct sxe::DecodedProgram {
  std::vector<Slot> Code;
  std::vector<Reg> CallArgs; ///< Argument registers of every Call.
  std::vector<DecodedFunction> Funcs;
  std::vector<const Instruction *> Branches; ///< By Slot::BranchIndex.
};

namespace {

/// The write-back rule for \p I's destination (or, for a Ret, its value).
PostOp postOpFor(const Instruction &I, const Function &F,
                 const InterpOptions &Options) {
  if (I.opcode() == Opcode::Ret)
    return Options.Semantics == ExecSemantics::Java
               ? canonicalPostOp(F.returnType())
               : NoPostOp;
  // A call's result is canonicalized by the Ret that produces it.
  if (!I.hasDest() || I.opcode() == Opcode::Call)
    return NoPostOp;
  // Java-semantics mode canonicalizes every definition immediately, the
  // way a bytecode interpreter holds exact int/short/byte values.
  if (Options.Semantics == ExecSemantics::Java)
    return canonicalPostOp(F.regType(I.dest()));
  // Machine mode on targets with implicit 32-bit zero extension (x86-64
  // writes every 32-bit result to a 32-bit register, which the hardware
  // zero-extends into the full 64-bit register). D2I is a 32-bit-register
  // write too (cvttsd2si with a 32-bit destination).
  if (Options.Target->w32ResultsZeroExtend() &&
      ((I.info().HasWidth && I.isW32()) || I.opcode() == Opcode::D2I))
    return Zext32PostOp;
  return NoPostOp;
}

std::unique_ptr<DecodedProgram> decode(const Module &M,
                                       const InterpOptions &Options) {
  auto P = std::make_unique<DecodedProgram>();
  // Lay out the blocks first, so branches and calls can name any slot.
  std::unordered_map<const Function *, uint32_t> FuncIndex;
  std::unordered_map<const BasicBlock *, uint32_t> BlockSlot;
  uint32_t NumSlots = 0;
  for (const auto &F : M.functions()) {
    FuncIndex.emplace(F.get(), static_cast<uint32_t>(P->Funcs.size()));
    P->Funcs.push_back({F.get(), NumSlots, F->numRegs()});
    for (const auto &BB : F->blocks()) {
      BlockSlot.emplace(BB.get(), NumSlots);
      for ([[maybe_unused]] const Instruction &I : *BB)
        ++NumSlots;
    }
  }
  P->Code.reserve(NumSlots);

  for (const auto &F : M.functions()) {
    for (const auto &BB : F->blocks()) {
      for (const Instruction &I : *BB) {
        Slot S;
        S.Op = I.opcode();
        S.Post = postOpFor(I, *F, Options);
        S.W = I.width();
        S.Pred = I.pred();
        S.Ty = I.type();
        S.Cost = instructionCycleCost(I, *Options.Target);
        S.Dest = I.dest();
        S.NumOperands = I.numOperands();
        switch (I.opcode()) {
        case Opcode::ConstInt:
          S.Imm = static_cast<uint64_t>(I.intValue());
          break;
        case Opcode::ConstF64:
          S.Imm = doubleToBits(I.floatValue());
          break;
        case Opcode::Br:
          S.Src[0] = I.operand(0);
          S.Succ[0] = BlockSlot.at(I.successor(0));
          S.Succ[1] = BlockSlot.at(I.successor(1));
          S.BranchIndex = static_cast<uint32_t>(P->Branches.size());
          P->Branches.push_back(&I);
          break;
        case Opcode::Jmp:
          S.Succ[0] = BlockSlot.at(I.successor(0));
          break;
        case Opcode::Call:
          S.Succ[0] = FuncIndex.at(I.callee());
          S.Succ[1] = static_cast<uint32_t>(P->CallArgs.size());
          P->CallArgs.insert(P->CallArgs.end(), I.operands().begin(),
                             I.operands().end());
          break;
        default:
          assert(I.numOperands() <= 3 && "operand beyond the decoded three");
          for (unsigned Index = 0; Index < I.numOperands(); ++Index)
            S.Src[Index] = I.operand(Index);
          break;
        }
        P->Code.push_back(S);
      }
    }
  }
  return P;
}

/// One heap-allocated array.
struct ArrayObject {
  Type ElemTy;
  std::vector<uint64_t> Data; ///< One 64-bit slot per element.
};

/// One activation record. Its registers are RegFile[Base, Base + NumRegs).
struct Frame {
  uint32_t Func = 0; ///< Index into DecodedProgram::Funcs.
  uint32_t Base = 0;
  const Slot *ReturnTo = nullptr; ///< Caller's next slot.
  Reg ResultReg = NoReg; ///< Caller register receiving the return value.
};

/// Full execution state for one Interpreter::run call.
class Machine {
public:
  Machine(const DecodedProgram &P, const InterpOptions &Options)
      : P(P), Options(Options) {}

  ExecResult run(uint32_t EntryFunc, const std::vector<uint64_t> &Args);

private:
  void trap(TrapKind Kind, const std::string &Message) {
    Result.Trap = Kind;
    Result.TrapMessage = Message;
  }

  /// The array an ArrayLoad/ArrayStore reaches at element \p Index, or
  /// null when the access must trap.
  ArrayObject *accessedArray(uint64_t Handle, uint64_t Index) {
    // Handle 0 (null) wraps past every live handle. Every array is shorter
    // than 2^31 elements, so a full-register index below its length has a
    // clear upper half: the bounds check and the wild-address check of
    // arrayAccessTrap both pass.
    if (Handle - 1 < Heap.size() && Index < Heap[Handle - 1].Data.size())
      return &Heap[Handle - 1];
    return nullptr;
  }

  /// Traps the access accessedArray refused, with the first failing check
  /// of the order null, bounds, wild address.
  [[gnu::cold]] void arrayAccessTrap(uint64_t Handle, uint64_t Index,
                                     const Frame &Top);

  const DecodedProgram &P;
  const InterpOptions &Options;
  /// Every frame's registers, innermost last. A call grows it and a return
  /// shrinks it, so pointers into it must be re-derived after either.
  std::vector<uint64_t> RegFile;
  std::vector<Frame> Frames;
  std::vector<ArrayObject> Heap;
  uint64_t HeapElements = 0;
  ExecResult Result;
};

void Machine::arrayAccessTrap(uint64_t Handle, uint64_t Index,
                              const Frame &Top) {
  if (Handle == 0 || Handle > Heap.size()) {
    trap(TrapKind::NullArray, "array access through null");
    return;
  }
  // Bounds check with a 32-bit unsigned compare of the LOWER half only.
  uint32_t IndexLow = static_cast<uint32_t>(Index);
  if (IndexLow >= Heap[Handle - 1].Data.size()) {
    trap(TrapKind::BoundsCheck, "array index out of bounds");
    return;
  }
  // The effective address uses the FULL register (Section 3): if it
  // disagrees with the checked low half, the machine would access wild
  // memory — a miscompile this interpreter detects.
  trap(TrapKind::WildAddress,
       "effective address disagrees with bounds-checked index in " +
           P.Funcs[Top.Func].F->name());
}

// Opcode dispatch. Each handler ends by charging the next slot and jumping
// through a computed-goto label table indexed by its opcode byte, instead
// of returning to a switch (bounds check + jump through a compiler-shaped
// table): the classic threaded-interpreter dispatch, which gives each
// handler's jump its own branch-predictor slot. Labels as values need a
// GNU-compatible compiler, as __int128 in sxe/Elimination.cpp already
// does.
//
// The X-macro lists every opcode in declaration order; the static_assert
// below keeps the label table in lockstep with the Opcode enum.
#define SXE_FOR_EACH_OPCODE(X)                                                 \
  X(ConstInt) X(ConstF64) X(Copy) X(Add) X(Sub) X(Mul) X(Div) X(Rem) X(And)   \
  X(Or) X(Xor) X(Shl) X(Shr) X(Sar) X(Neg) X(Not) X(Sext8) X(Sext16)          \
  X(Sext32) X(Zext32) X(Zext8) X(Zext16) X(Trunc32) X(JustExtended) X(FAdd)   \
  X(FSub) X(FMul) X(FDiv) X(FNeg) X(I2D) X(D2I) X(Cmp) X(FCmp) X(Br) X(Jmp)  \
  X(Ret) X(Call) X(Trap) X(NewArray) X(ArrayLen) X(ArrayLoad) X(ArrayStore)

#define SXE_OPCODE_LABEL_ADDR(Name) &&Handle##Name,
#define SXE_CASE(Name) Handle##Name:
// Executes the slot at Pc: the step budget first, then the instruction
// count and cycles, then the handler.
#define SXE_DISPATCH()                                                         \
  do {                                                                         \
    if (Executed >= MaxSteps) {                                                \
      trap(TrapKind::StepLimit, "instruction budget exhausted");               \
      goto Finished;                                                           \
    }                                                                          \
    ++Executed;                                                                \
    Cycles += Pc->Cost;                                                        \
    goto *DispatchTable[static_cast<unsigned>(Pc->Op)];                        \
  } while (false)
#define SXE_NEXT()                                                             \
  do {                                                                         \
    ++Pc;                                                                      \
    SXE_DISPATCH();                                                            \
  } while (false)
#define SXE_TRAP(Kind, Message)                                                \
  do {                                                                         \
    trap(Kind, Message);                                                       \
    goto Finished;                                                             \
  } while (false)

ExecResult Machine::run(uint32_t EntryFunc,
                        const std::vector<uint64_t> &Args) {
  static const void *const DispatchTable[] = {
      SXE_FOR_EACH_OPCODE(SXE_OPCODE_LABEL_ADDR)};
  static_assert(sizeof(DispatchTable) / sizeof(DispatchTable[0]) ==
                    NumOpcodes,
                "dispatch table out of sync with the Opcode enum");

  const Slot *const Code = P.Code.data();
  const DivOperands Div = Options.Target->w32ResultsZeroExtend()
                              ? DivOperands::Low32
                              : DivOperands::FullRegister;
  const bool LoadSext16 = Options.Target->loadSignExtends(Type::I16);
  const bool LoadSext32 = Options.Target->loadSignExtends(Type::I32);
  const uint64_t MaxSteps = Options.MaxSteps;
  std::vector<uint64_t> BranchCounts; // Taken, not-taken per Slot::BranchIndex.
  if (Options.Profile)
    BranchCounts.assign(2 * P.Branches.size(), 0);
  uint64_t *const Counts = BranchCounts.data();

  // Locals start zeroed (JVM-like); parameters take the arguments.
  const DecodedFunction &Entry = P.Funcs[EntryFunc];
  RegFile.assign(Entry.NumRegs, 0);
  std::copy(Args.begin(), Args.end(), RegFile.begin());
  Frames.push_back({EntryFunc, 0, nullptr, NoReg});
  uint64_t *Regs = RegFile.data();
  const Slot *Pc = Code + Entry.Entry;
  uint64_t Executed = 0, Cycles = 0, RetValue = 0;

  auto Val = [&](unsigned Index) { return Regs[Pc->Src[Index]]; };
  auto FVal = [&](unsigned Index) { return bitsToDouble(Val(Index)); };
  auto Set = [&](uint64_t Value) {
    Regs[Pc->Dest] = applyPostOp(Pc->Post, Value);
  };
  // The pure integer operations evaluate through ir/Semantics.h. Every
  // handler passes its own constant opcode, so the inlined evaluator's
  // switch folds away.
  auto Unary = [&](Opcode Op) {
    Set(evaluate(Op, Pc->W, Pc->Pred, Val(0), 0).Value);
  };
  auto Binary = [&](Opcode Op) {
    Set(evaluate(Op, Pc->W, Pc->Pred, Val(0), Val(1)).Value);
  };
  // False, having written nothing, on a divide by zero.
  auto Divide = [&](Opcode Op) {
    Evaluation E = evaluate(Op, Pc->W, Pc->Pred, Val(0), Val(1), Div);
    if (!E.DivByZero)
      Set(E.Value);
    return !E.DivByZero;
  };

  SXE_DISPATCH();

  SXE_CASE(ConstInt)
  SXE_CASE(ConstF64)
    Set(Pc->Imm);
    SXE_NEXT();
  SXE_CASE(Copy)
    Set(Val(0));
    SXE_NEXT();

  SXE_CASE(Add) Binary(Opcode::Add); SXE_NEXT();
  SXE_CASE(Sub) Binary(Opcode::Sub); SXE_NEXT();
  SXE_CASE(Mul) Binary(Opcode::Mul); SXE_NEXT();
  SXE_CASE(Div)
    if (!Divide(Opcode::Div))
      SXE_TRAP(TrapKind::DivByZero, "integer divide by zero");
    SXE_NEXT();
  SXE_CASE(Rem)
    if (!Divide(Opcode::Rem))
      SXE_TRAP(TrapKind::DivByZero, "integer divide by zero");
    SXE_NEXT();
  SXE_CASE(And) Binary(Opcode::And); SXE_NEXT();
  SXE_CASE(Or) Binary(Opcode::Or); SXE_NEXT();
  SXE_CASE(Xor) Binary(Opcode::Xor); SXE_NEXT();
  SXE_CASE(Shl) Binary(Opcode::Shl); SXE_NEXT();
  SXE_CASE(Shr) Binary(Opcode::Shr); SXE_NEXT();
  SXE_CASE(Sar) Binary(Opcode::Sar); SXE_NEXT();
  SXE_CASE(Neg) Unary(Opcode::Neg); SXE_NEXT();
  SXE_CASE(Not) Unary(Opcode::Not); SXE_NEXT();

  SXE_CASE(Sext8)
    ++Result.ExecutedSext8;
    Unary(Opcode::Sext8);
    SXE_NEXT();
  SXE_CASE(Sext16)
    ++Result.ExecutedSext16;
    Unary(Opcode::Sext16);
    SXE_NEXT();
  SXE_CASE(Sext32)
    ++Result.ExecutedSext32;
    Unary(Opcode::Sext32);
    SXE_NEXT();
  SXE_CASE(Zext32)
    ++Result.ExecutedZext32;
    Unary(Opcode::Zext32);
    SXE_NEXT();
  SXE_CASE(Zext8)
    ++Result.ExecutedZext8;
    Unary(Opcode::Zext8);
    SXE_NEXT();
  SXE_CASE(Zext16)
    ++Result.ExecutedZext16;
    Unary(Opcode::Zext16);
    SXE_NEXT();
  SXE_CASE(Trunc32)
    ++Result.ExecutedTrunc32;
    Unary(Opcode::Trunc32);
    SXE_NEXT();
  SXE_CASE(JustExtended)
    // Dummy markers should be eliminated before execution; tolerate them as
    // free moves for mid-pipeline differential runs but keep a count.
    ++Result.ExecutedDummies;
    Set(Val(0));
    SXE_NEXT();

  SXE_CASE(FAdd)
    Set(doubleToBits(FVal(0) + FVal(1)));
    SXE_NEXT();
  SXE_CASE(FSub)
    Set(doubleToBits(FVal(0) - FVal(1)));
    SXE_NEXT();
  SXE_CASE(FMul)
    Set(doubleToBits(FVal(0) * FVal(1)));
    SXE_NEXT();
  SXE_CASE(FDiv)
    Set(doubleToBits(FVal(0) / FVal(1)));
    SXE_NEXT();
  SXE_CASE(FNeg)
    Set(doubleToBits(-FVal(0)));
    SXE_NEXT();
  SXE_CASE(I2D)
    // Converts the FULL register: an unextended source yields garbage.
    Set(doubleToBits(static_cast<double>(static_cast<int64_t>(Val(0)))));
    SXE_NEXT();
  SXE_CASE(D2I)
    Set(static_cast<uint64_t>(static_cast<int64_t>(d2i(FVal(0)))));
    SXE_NEXT();

  SXE_CASE(Cmp) Binary(Opcode::Cmp); SXE_NEXT();
  SXE_CASE(FCmp)
    Set(fcmp(Pc->Pred, FVal(0), FVal(1)) ? 1 : 0);
    SXE_NEXT();

  SXE_CASE(Br) {
    bool Taken = Val(0) != 0;
    if (Counts)
      ++Counts[2 * Pc->BranchIndex + (Taken ? 0 : 1)];
    Pc = Code + Pc->Succ[Taken ? 0 : 1];
    SXE_DISPATCH();
  }
  SXE_CASE(Jmp)
    Pc = Code + Pc->Succ[0];
    SXE_DISPATCH();
  SXE_CASE(Ret) {
    RetValue = applyPostOp(Pc->Post, Pc->NumOperands == 1 ? Val(0) : 0);
    Frame Done = Frames.back();
    Frames.pop_back();
    if (Frames.empty())
      goto Finished;
    RegFile.resize(Done.Base);
    Regs = RegFile.data() + Frames.back().Base;
    if (Done.ResultReg != NoReg)
      Regs[Done.ResultReg] = RetValue;
    Pc = Done.ReturnTo;
    SXE_DISPATCH();
  }
  SXE_CASE(Call) {
    if (Frames.size() >= MaxCallDepth)
      SXE_TRAP(TrapKind::StackOverflow, "call depth limit exceeded");
    const uint32_t Callee = Pc->Succ[0];
    const uint32_t CallerBase = Frames.back().Base;
    const uint32_t Base = static_cast<uint32_t>(RegFile.size());
    RegFile.resize(Base + P.Funcs[Callee].NumRegs); // Zeroes the new frame.
    uint64_t *Caller = RegFile.data() + CallerBase;
    Regs = RegFile.data() + Base;
    const Reg *ArgRegs = P.CallArgs.data() + Pc->Succ[1];
    for (unsigned Index = 0; Index < Pc->NumOperands; ++Index)
      Regs[Index] = Caller[ArgRegs[Index]];
    Frames.push_back({Callee, Base, Pc + 1, Pc->Dest});
    Pc = Code + P.Funcs[Callee].Entry;
    SXE_DISPATCH();
  }
  SXE_CASE(Trap)
    SXE_TRAP(TrapKind::ExplicitTrap, "trap instruction executed");

  SXE_CASE(NewArray) {
    int32_t LenLow = static_cast<int32_t>(Val(0));
    if (LenLow < 0)
      SXE_TRAP(TrapKind::NegativeArraySize, "negative array size");
    if (static_cast<int64_t>(Val(0)) != LenLow)
      SXE_TRAP(TrapKind::WildAddress,
               "newarray length register not sign-extended");
    uint64_t Len = static_cast<uint64_t>(LenLow);
    if (Len > Options.MaxArrayLen)
      SXE_TRAP(TrapKind::AllocationLimit,
               "array exceeds the configured limit");
    if (HeapElements + Len > MaxHeapElements)
      reportFatalError("interpreter heap limit exceeded (workload bug)");
    HeapElements += Len;
    Heap.push_back(ArrayObject{Pc->Ty, std::vector<uint64_t>(Len, 0)});
    Set(Heap.size()); // Handle: index + 1; 0 is the null reference.
    SXE_NEXT();
  }
  SXE_CASE(ArrayLen) {
    uint64_t Handle = Val(0);
    if (Handle == 0 || Handle > Heap.size())
      SXE_TRAP(TrapKind::NullArray, "arraylen of null");
    Set(Heap[Handle - 1].Data.size());
    SXE_NEXT();
  }
  SXE_CASE(ArrayLoad) {
    ArrayObject *Array = accessedArray(Val(0), Val(1));
    if (!Array) {
      arrayAccessTrap(Val(0), Val(1), Frames.back());
      goto Finished;
    }
    uint64_t Raw = Array->Data[Val(1)];
    switch (Array->ElemTy) {
    case Type::I8:
      // Byte loads zero-extend on both modeled targets.
      Set(Raw & 0xFF);
      break;
    case Type::I16:
      Set(LoadSext16 ? signExtend16(Raw) : Raw & 0xFFFF);
      break;
    case Type::U16:
      Set(Raw & 0xFFFF);
      break;
    case Type::I32:
      Set(LoadSext32 ? signExtend32(Raw) : Raw & 0xFFFFFFFF);
      break;
    default:
      Set(Raw);
      break;
    }
    SXE_NEXT();
  }
  SXE_CASE(ArrayStore) {
    ArrayObject *Array = accessedArray(Val(0), Val(1));
    if (!Array) {
      arrayAccessTrap(Val(0), Val(1), Frames.back());
      goto Finished;
    }
    uint64_t Value = Val(2);
    switch (Array->ElemTy) {
    case Type::I8:
      Value &= 0xFF;
      break;
    case Type::I16:
    case Type::U16:
      Value &= 0xFFFF;
      break;
    case Type::I32:
      Value &= 0xFFFFFFFF;
      break;
    default:
      break;
    }
    Array->Data[Val(1)] = Value;
    SXE_NEXT();
  }

Finished:
  Result.ExecutedInstructions = Executed;
  Result.Cycles = Cycles;
  if (Result.Trap == TrapKind::None)
    Result.ReturnValue = RetValue;
  for (size_t Index = 0; Index < P.Branches.size() && Counts; ++Index) {
    uint64_t Taken = Counts[2 * Index], NotTaken = Counts[2 * Index + 1];
    if (Taken + NotTaken != 0)
      Options.Profile->addBranchCounts(P.Branches[Index], Taken, NotTaken);
  }
  return Result;
}

#undef SXE_TRAP
#undef SXE_NEXT
#undef SXE_DISPATCH
#undef SXE_OPCODE_LABEL_ADDR
#undef SXE_CASE
#undef SXE_FOR_EACH_OPCODE

} // namespace

Interpreter::Interpreter(const Module &M, InterpOptions Options)
    : M(M), Options(Options) {
  verifyModuleOrDie(M);
  Code = decode(M, this->Options);
}

Interpreter::~Interpreter() = default;

ExecResult Interpreter::run(const std::string &FuncName,
                            const std::vector<uint64_t> &Args) {
  const Function *Entry = M.findFunction(FuncName);
  if (!Entry)
    reportFatalError("interpreter: no function named " + FuncName);
  if (Args.size() != Entry->numParams())
    reportFatalError("interpreter: argument count mismatch for " + FuncName);
  uint32_t EntryFunc = 0;
  while (Code->Funcs[EntryFunc].F != Entry)
    ++EntryFunc;
  Machine Mach(*Code, Options);
  return Mach.run(EntryFunc, Args);
}
