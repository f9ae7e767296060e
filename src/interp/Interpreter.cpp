//===- interp/Interpreter.cpp - IR interpreter -------------------------------===//

#include "interp/Interpreter.h"

#include "ir/Semantics.h"
#include "ir/Verifier.h"
#include "support/Error.h"
#include "target/CostModel.h"

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

/// One heap-allocated array.
struct ArrayObject {
  Type ElemTy;
  std::vector<uint64_t> Data; ///< One 64-bit slot per element.
};

/// One activation record.
struct Frame {
  const Function *F = nullptr;
  std::vector<uint64_t> Regs;
  BasicBlock::const_iterator It;
  BasicBlock::const_iterator End;
  Reg ResultReg = NoReg; ///< Caller register receiving the return value.
};

/// Full execution state for one Interpreter::run call.
class Machine {
public:
  Machine(const Module &M, const InterpOptions &Options)
      : M(M), Options(Options) {}

  ExecResult run(const Function &Entry, const std::vector<uint64_t> &Args);

private:
  void trap(TrapKind Kind, const std::string &Message) {
    Result.Trap = Kind;
    Result.TrapMessage = Message;
  }

  void pushFrame(const Function &F, const std::vector<uint64_t> &Args,
                 Reg ResultReg);
  void execute(const Instruction &I);

  const Module &M;
  const InterpOptions &Options;
  std::vector<Frame> Stack;
  std::vector<ArrayObject> Heap;
  uint64_t HeapElements = 0;
  ExecResult Result;
  uint64_t RetValue = 0; ///< Value being returned to the caller.
};

void Machine::pushFrame(const Function &F, const std::vector<uint64_t> &Args,
                        Reg ResultReg) {
  if (Stack.size() >= MaxCallDepth) {
    trap(TrapKind::StackOverflow, "call depth limit exceeded");
    return;
  }
  Frame NewFrame;
  NewFrame.F = &F;
  NewFrame.Regs.assign(F.numRegs(), 0); // Locals start zeroed (JVM-like).
  assert(Args.size() == F.numParams() && "argument count mismatch");
  for (size_t Index = 0; Index < Args.size(); ++Index)
    NewFrame.Regs[Index] = Args[Index];
  NewFrame.It = F.entryBlock()->begin();
  NewFrame.End = F.entryBlock()->end();
  NewFrame.ResultReg = ResultReg;
  Stack.push_back(std::move(NewFrame));
}

ExecResult Machine::run(const Function &Entry,
                        const std::vector<uint64_t> &Args) {
  pushFrame(Entry, Args, NoReg);
  while (!Stack.empty() && Result.Trap == TrapKind::None) {
    if (Result.ExecutedInstructions >= Options.MaxSteps) {
      trap(TrapKind::StepLimit, "instruction budget exhausted");
      break;
    }
    Frame &Top = Stack.back();
    if (Top.It == Top.End)
      reportFatalError("fell off the end of a basic block (verifier hole)");
    const Instruction &I = *Top.It;
    ++Top.It;
    execute(I);
    // Machine mode on targets with implicit 32-bit zero extension (x86-64
    // writes every 32-bit result to a 32-bit register, which the hardware
    // zero-extends into the full 64-bit register). D2I is a 32-bit-register
    // write too (cvttsd2si with a 32-bit destination).
    if (Options.Semantics == ExecSemantics::Machine &&
        Options.Target->w32ResultsZeroExtend() &&
        Result.Trap == TrapKind::None && I.hasDest() &&
        I.opcode() != Opcode::Call && !Stack.empty() &&
        ((I.info().HasWidth && I.isW32()) || I.opcode() == Opcode::D2I)) {
      Frame &Top2 = Stack.back();
      Top2.Regs[I.dest()] &= 0xFFFFFFFF;
    }
    // Java-semantics mode canonicalizes every definition immediately, the
    // way a bytecode interpreter holds exact int/short/byte values. Call
    // results are canonicalized at the Ret that produces them.
    if (Options.Semantics == ExecSemantics::Java &&
        Result.Trap == TrapKind::None && I.hasDest() &&
        I.opcode() != Opcode::Call && !Stack.empty()) {
      Frame &Top2 = Stack.back();
      Top2.Regs[I.dest()] =
          canonical(Top2.Regs[I.dest()], Top2.F->regType(I.dest()));
    }
  }
  if (Result.Trap == TrapKind::None)
    Result.ReturnValue = RetValue;
  return Result;
}

// Opcode dispatch. The interpreter indexes a computed-goto label table
// with the opcode byte instead of running the switch lowering (bounds
// check + jump through a compiler-shaped table); the direct indexed jump
// is the classic threaded-interpreter dispatch and gives each opcode's
// jump its own branch-predictor slot. Labels as values need a
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

#define SXE_DISPATCH_BEGIN(Op)                                                 \
  static const void *const DispatchTable[] = {SXE_FOR_EACH_OPCODE(             \
      SXE_OPCODE_LABEL_ADDR)};                                                 \
  static_assert(sizeof(DispatchTable) / sizeof(DispatchTable[0]) ==            \
                    NumOpcodes,                                                \
                "dispatch table out of sync with the Opcode enum");            \
  goto *DispatchTable[static_cast<unsigned>(Op)];
#define SXE_OPCODE_LABEL_ADDR(Name) &&Handle##Name,
#define SXE_CASE(Name) Handle##Name:

void Machine::execute(const Instruction &I) {
  Frame &F = Stack.back();
  auto Val = [&](unsigned Index) { return F.Regs[I.operand(Index)]; };
  auto Set = [&](uint64_t Value) { F.Regs[I.dest()] = Value; };
  auto FVal = [&](unsigned Index) { return bitsToDouble(Val(Index)); };
  // The pure integer operations evaluate through ir/Semantics.h. Every
  // handler passes its own constant opcode, so the inlined evaluator's
  // switch folds away.
  auto Unary = [&](Opcode Op) {
    Set(evaluate(Op, I.width(), I.pred(), Val(0), 0).Value);
  };
  auto Binary = [&](Opcode Op) {
    Set(evaluate(Op, I.width(), I.pred(), Val(0), Val(1)).Value);
  };
  auto Divide = [&](Opcode Op) {
    Evaluation E = evaluate(Op, I.width(), I.pred(), Val(0), Val(1),
                            Options.Target->w32ResultsZeroExtend()
                                ? DivOperands::Low32
                                : DivOperands::FullRegister);
    if (E.DivByZero)
      trap(TrapKind::DivByZero, "integer divide by zero");
    else
      Set(E.Value);
  };

  ++Result.ExecutedInstructions;
  Result.Cycles += instructionCycleCost(I, *Options.Target);

  SXE_DISPATCH_BEGIN(I.opcode())
  SXE_CASE(ConstInt)
    Set(static_cast<uint64_t>(I.intValue()));
    return;
  SXE_CASE(ConstF64)
    Set(doubleToBits(I.floatValue()));
    return;
  SXE_CASE(Copy)
    Set(Val(0));
    return;

  SXE_CASE(Add) return Binary(Opcode::Add);
  SXE_CASE(Sub) return Binary(Opcode::Sub);
  SXE_CASE(Mul) return Binary(Opcode::Mul);
  SXE_CASE(Div) return Divide(Opcode::Div);
  SXE_CASE(Rem) return Divide(Opcode::Rem);
  SXE_CASE(And) return Binary(Opcode::And);
  SXE_CASE(Or) return Binary(Opcode::Or);
  SXE_CASE(Xor) return Binary(Opcode::Xor);
  SXE_CASE(Shl) return Binary(Opcode::Shl);
  SXE_CASE(Shr) return Binary(Opcode::Shr);
  SXE_CASE(Sar) return Binary(Opcode::Sar);
  SXE_CASE(Neg) return Unary(Opcode::Neg);
  SXE_CASE(Not) return Unary(Opcode::Not);

  SXE_CASE(Sext8)
    ++Result.ExecutedSext8;
    return Unary(Opcode::Sext8);
  SXE_CASE(Sext16)
    ++Result.ExecutedSext16;
    return Unary(Opcode::Sext16);
  SXE_CASE(Sext32)
    ++Result.ExecutedSext32;
    return Unary(Opcode::Sext32);
  SXE_CASE(Zext32)
    ++Result.ExecutedZext32;
    return Unary(Opcode::Zext32);
  SXE_CASE(Zext8)
    ++Result.ExecutedZext8;
    return Unary(Opcode::Zext8);
  SXE_CASE(Zext16)
    ++Result.ExecutedZext16;
    return Unary(Opcode::Zext16);
  SXE_CASE(Trunc32)
    ++Result.ExecutedTrunc32;
    return Unary(Opcode::Trunc32);
  SXE_CASE(JustExtended)
    // Dummy markers should be eliminated before execution; tolerate them as
    // free moves for mid-pipeline differential runs but keep a count.
    ++Result.ExecutedDummies;
    Set(Val(0));
    return;

  SXE_CASE(FAdd)
    Set(doubleToBits(FVal(0) + FVal(1)));
    return;
  SXE_CASE(FSub)
    Set(doubleToBits(FVal(0) - FVal(1)));
    return;
  SXE_CASE(FMul)
    Set(doubleToBits(FVal(0) * FVal(1)));
    return;
  SXE_CASE(FDiv)
    Set(doubleToBits(FVal(0) / FVal(1)));
    return;
  SXE_CASE(FNeg)
    Set(doubleToBits(-FVal(0)));
    return;
  SXE_CASE(I2D)
    // Converts the FULL register: an unextended source yields garbage.
    Set(doubleToBits(static_cast<double>(static_cast<int64_t>(Val(0)))));
    return;
  SXE_CASE(D2I)
    Set(static_cast<uint64_t>(static_cast<int64_t>(d2i(FVal(0)))));
    return;

  SXE_CASE(Cmp) return Binary(Opcode::Cmp);
  SXE_CASE(FCmp)
    Set(fcmp(I.pred(), FVal(0), FVal(1)) ? 1 : 0);
    return;

  SXE_CASE(Br) {
    bool Taken = Val(0) != 0;
    if (Options.Profile)
      Options.Profile->recordBranch(&I, Taken);
    const BasicBlock *Target = I.successor(Taken ? 0 : 1);
    F.It = Target->begin();
    F.End = Target->end();
    return;
  }
  SXE_CASE(Jmp) {
    const BasicBlock *Target = I.successor(0);
    F.It = Target->begin();
    F.End = Target->end();
    return;
  }
  SXE_CASE(Ret) {
    RetValue = I.numOperands() == 1 ? Val(0) : 0;
    if (Options.Semantics == ExecSemantics::Java)
      RetValue = canonical(RetValue, F.F->returnType());
    Reg ResultReg = F.ResultReg;
    Stack.pop_back();
    if (!Stack.empty() && ResultReg != NoReg)
      Stack.back().Regs[ResultReg] = RetValue;
    return;
  }
  SXE_CASE(Call) {
    std::vector<uint64_t> Args;
    Args.reserve(I.numOperands());
    for (unsigned Index = 0; Index < I.numOperands(); ++Index)
      Args.push_back(Val(Index));
    pushFrame(*I.callee(), Args, I.dest());
    return;
  }
  SXE_CASE(Trap)
    trap(TrapKind::ExplicitTrap, "trap instruction executed");
    return;

  SXE_CASE(NewArray) {
    int32_t LenLow = static_cast<int32_t>(Val(0));
    if (LenLow < 0) {
      trap(TrapKind::NegativeArraySize, "negative array size");
      return;
    }
    if (static_cast<int64_t>(Val(0)) != LenLow) {
      trap(TrapKind::WildAddress,
           "newarray length register not sign-extended");
      return;
    }
    uint64_t Len = static_cast<uint64_t>(LenLow);
    if (Len > Options.MaxArrayLen) {
      trap(TrapKind::AllocationLimit, "array exceeds the configured limit");
      return;
    }
    if (HeapElements + Len > MaxHeapElements)
      reportFatalError("interpreter heap limit exceeded (workload bug)");
    HeapElements += Len;
    Heap.push_back(ArrayObject{I.type(), std::vector<uint64_t>(Len, 0)});
    Set(Heap.size()); // Handle: index + 1; 0 is the null reference.
    return;
  }
  SXE_CASE(ArrayLen) {
    uint64_t Handle = Val(0);
    if (Handle == 0 || Handle > Heap.size()) {
      trap(TrapKind::NullArray, "arraylen of null");
      return;
    }
    Set(Heap[Handle - 1].Data.size());
    return;
  }
  SXE_CASE(ArrayLoad)
  SXE_CASE(ArrayStore) {
    uint64_t Handle = Val(0);
    if (Handle == 0 || Handle > Heap.size()) {
      trap(TrapKind::NullArray, "array access through null");
      return;
    }
    ArrayObject &Array = Heap[Handle - 1];

    // Bounds check with a 32-bit unsigned compare of the LOWER half only.
    uint32_t IndexLow = static_cast<uint32_t>(Val(1));
    if (IndexLow >= Array.Data.size()) {
      trap(TrapKind::BoundsCheck, "array index out of bounds");
      return;
    }
    // The effective address uses the FULL register (Section 3): if it
    // disagrees with the checked low half, the machine would access wild
    // memory — a miscompile this interpreter detects.
    if (Val(1) != IndexLow) {
      trap(TrapKind::WildAddress,
           "effective address disagrees with bounds-checked index in " +
               F.F->name());
      return;
    }

    if (I.opcode() == Opcode::ArrayStore) {
      uint64_t Value = F.Regs[I.operand(2)];
      switch (Array.ElemTy) {
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
      Array.Data[IndexLow] = Value;
      return;
    }

    uint64_t Raw = Array.Data[IndexLow];
    switch (Array.ElemTy) {
    case Type::I8:
      // Byte loads zero-extend on both modeled targets.
      Set(Raw & 0xFF);
      return;
    case Type::I16:
      Set(Options.Target->loadSignExtends(Type::I16) ? signExtend16(Raw)
                                                     : Raw & 0xFFFF);
      return;
    case Type::U16:
      Set(Raw & 0xFFFF);
      return;
    case Type::I32:
      Set(Options.Target->loadSignExtends(Type::I32) ? signExtend32(Raw)
                                                     : Raw & 0xFFFFFFFF);
      return;
    default:
      Set(Raw);
      return;
    }
  }
}

#undef SXE_DISPATCH_BEGIN
#undef SXE_OPCODE_LABEL_ADDR
#undef SXE_CASE
#undef SXE_FOR_EACH_OPCODE

} // namespace

Interpreter::Interpreter(const Module &M, InterpOptions Options)
    : M(M), Options(Options) {
  verifyModuleOrDie(M);
}

ExecResult Interpreter::run(const std::string &FuncName,
                            const std::vector<uint64_t> &Args) {
  const Function *Entry = M.findFunction(FuncName);
  if (!Entry)
    reportFatalError("interpreter: no function named " + FuncName);
  if (Args.size() != Entry->numParams())
    reportFatalError("interpreter: argument count mismatch for " + FuncName);
  Machine Mach(M, Options);
  return Mach.run(*Entry, Args);
}
