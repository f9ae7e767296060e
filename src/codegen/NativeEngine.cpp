//===- codegen/NativeEngine.cpp - Native x86-64 execution engine -------------===//
//
// The runtime half of the baseline backend: the NativeCtx struct the
// emitted code addresses by fixed offsets, the array heap whose descriptor
// table inline array access reads, the C runtime helpers (the semantics
// of Machine mode on the x86_64 target, evaluated through ir/Semantics.h
// and trapping where the interpreter traps), and the compile/run
// pipeline.
//
// Traps unwind by longjmp: every helper that detects a trap condition, and
// rt_trap, which the emitted checks branch to, records the kind and
// message in the per-run runtime state and jumps straight back to
// NativeModule::run, abandoning the native frames. The native frames own
// no resources (the heap lives in NativeRuntime), so the non-local exit is
// safe.
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeEngine.h"

#include "codegen/CodeBuffer.h"
#include "codegen/Emitter.h"
#include "codegen/LiveIntervals.h"
#include "codegen/MachineVerifier.h"
#include "ir/Semantics.h"
#include "ir/Verifier.h"
#include "support/Error.h"
#include "support/Timer.h"

#include <csetjmp>
#include <cstddef>
#include <cstring>

using namespace sxe;

namespace {

struct NativeRuntime;

/// The struct emitted code addresses through R15. Field offsets are part
/// of the code's ABI; the static_asserts below pin them to
/// NativeCtxLayout, which the emitter compiled against.
struct NativeCtx {
  int64_t Fuel;       ///< Remaining step budget; goes negative on exhaust.
  int32_t Depth;      ///< Current call depth.
  int32_t MaxDepth;   ///< Depth limit (exceeded => StackOverflow).
  void **FnTable;     ///< Entry pointer per module function index.
  NativeRuntime *RT;  ///< The C++ runtime state behind the helpers.
  /// Array table: entry H - 1 describes handle H. rt_new_array refreshes
  /// both fields, because appending can move the table.
  NativeArrayDesc *Arrays;
  uint64_t NumArrays;
};

static_assert(offsetof(NativeCtx, Fuel) == NativeCtxLayout::FuelOffset,
              "emitted code disagrees with NativeCtx layout");
static_assert(offsetof(NativeCtx, Depth) == NativeCtxLayout::DepthOffset,
              "emitted code disagrees with NativeCtx layout");
static_assert(offsetof(NativeCtx, MaxDepth) == NativeCtxLayout::MaxDepthOffset,
              "emitted code disagrees with NativeCtx layout");
static_assert(offsetof(NativeCtx, FnTable) == NativeCtxLayout::FnTableOffset,
              "emitted code disagrees with NativeCtx layout");
static_assert(offsetof(NativeCtx, Arrays) ==
                  NativeCtxLayout::ArrayTableOffset,
              "emitted code disagrees with NativeCtx layout");
static_assert(offsetof(NativeCtx, NumArrays) ==
                  NativeCtxLayout::ArrayCountOffset,
              "emitted code disagrees with NativeCtx layout");

/// Per-run state the helpers mutate; reset for every NativeModule::run.
struct NativeRuntime {
  const NativeOptions *Opts = nullptr;
  /// Element storage, one 64-bit slot per element regardless of element
  /// type (the interpreter's representation). Growing Heap moves the
  /// inner vectors without moving their elements, so Arrays' data
  /// pointers stay valid.
  std::vector<std::vector<uint64_t>> Heap;
  std::vector<NativeArrayDesc> Arrays;
  uint64_t HeapElements = 0;
  TrapKind Trap = TrapKind::None;
  std::string TrapMessage;
  std::jmp_buf Unwind;
};

[[noreturn]] void raiseTrap(NativeCtx *Ctx, TrapKind Kind,
                            const char *Message) {
  Ctx->RT->Trap = Kind;
  Ctx->RT->TrapMessage = Message;
  std::longjmp(Ctx->RT->Unwind, 1);
}

// --- Runtime helpers --------------------------------------------------------
//
// Signatures follow the emitter's helper calling convention: ctx first,
// then the IR operands in order, then the payload immediate (element
// type / predicate / trap kind) when the helper has one. Division, d2i
// and fcmp compute through ir/Semantics.h, as the interpreter does; the
// helpers add only what x86-64 adds: W32 division and d2i return
// zero-extended 32-bit results, and a trap longjmps out.

uint64_t rtNewArray(NativeCtx *Ctx, uint64_t Len) {
  NativeRuntime &RT = *Ctx->RT;
  int32_t LenLow = static_cast<int32_t>(Len);
  if (LenLow < 0)
    raiseTrap(Ctx, TrapKind::NegativeArraySize, "negative array size");
  if (static_cast<int64_t>(Len) != LenLow)
    raiseTrap(Ctx, TrapKind::WildAddress,
              "newarray length register not sign-extended");
  uint64_t N = static_cast<uint64_t>(LenLow);
  if (N > RT.Opts->MaxArrayLen)
    raiseTrap(Ctx, TrapKind::AllocationLimit,
              "array exceeds the configured limit");
  if (RT.HeapElements + N > MaxHeapElements)
    reportFatalError("native heap limit exceeded (workload bug)");
  RT.HeapElements += N;
  RT.Heap.emplace_back(N, 0);
  RT.Arrays.push_back(NativeArrayDesc{RT.Heap.back().data(), N});
  Ctx->Arrays = RT.Arrays.data();
  Ctx->NumArrays = RT.Arrays.size();
  return RT.Arrays.size(); // Handle: index + 1; 0 is the null reference.
}

/// Division through the shared evaluator. `idiv r32` reads the low 32 bits
/// of each register, and a W32 result is a 32-bit register write, which
/// zero-extends.
uint64_t divide(NativeCtx *Ctx, Opcode Op, Width W, uint64_t A, uint64_t B) {
  Evaluation E = evaluate(Op, W, CmpPred::EQ, A, B, DivOperands::Low32);
  if (E.DivByZero)
    raiseTrap(Ctx, TrapKind::DivByZero, "integer divide by zero");
  return W == Width::W32 ? E.Value & 0xFFFFFFFF : E.Value;
}

uint64_t rtDiv32(NativeCtx *Ctx, uint64_t A, uint64_t B) {
  return divide(Ctx, Opcode::Div, Width::W32, A, B);
}

uint64_t rtRem32(NativeCtx *Ctx, uint64_t A, uint64_t B) {
  return divide(Ctx, Opcode::Rem, Width::W32, A, B);
}

uint64_t rtDiv64(NativeCtx *Ctx, uint64_t A, uint64_t B) {
  return divide(Ctx, Opcode::Div, Width::W64, A, B);
}

uint64_t rtRem64(NativeCtx *Ctx, uint64_t A, uint64_t B) {
  return divide(Ctx, Opcode::Rem, Width::W64, A, B);
}

/// Java d2i, returned zero-extended: the cvttsd2si destination is a 32-bit
/// register write.
uint64_t rtD2I(NativeCtx *, uint64_t Bits) {
  return static_cast<uint32_t>(d2i(bitsToDouble(Bits)));
}

uint64_t rtFCmp(NativeCtx *, uint64_t ABits, uint64_t BBits, uint64_t Pred) {
  return fcmp(static_cast<CmpPred>(Pred), bitsToDouble(ABits),
              bitsToDouble(BBits));
}

/// Raises the trap the emitted code detected (\p Code is a TrapKind,
/// possibly with TrapFromArrayLen), with the interpreter's message.
[[noreturn]] void rtTrap(NativeCtx *Ctx, uint64_t Code) {
  if (Code == (static_cast<uint64_t>(TrapKind::NullArray) | TrapFromArrayLen))
    raiseTrap(Ctx, TrapKind::NullArray, "arraylen of null");
  TrapKind Kind = static_cast<TrapKind>(Code);
  switch (Kind) {
  case TrapKind::NullArray:
    raiseTrap(Ctx, Kind, "array access through null");
  case TrapKind::BoundsCheck:
    raiseTrap(Ctx, Kind, "array index out of bounds");
  case TrapKind::WildAddress:
    raiseTrap(Ctx, Kind,
              "effective address disagrees with bounds-checked index");
  case TrapKind::ExplicitTrap:
    raiseTrap(Ctx, TrapKind::ExplicitTrap, "trap instruction executed");
  case TrapKind::StackOverflow:
    raiseTrap(Ctx, TrapKind::StackOverflow, "call depth limit exceeded");
  case TrapKind::StepLimit:
    raiseTrap(Ctx, TrapKind::StepLimit, "instruction budget exhausted");
  default:
    raiseTrap(Ctx, Kind, "native trap");
  }
}

uint64_t helperAddr(uint64_t (*Fn)(NativeCtx *, uint64_t)) {
  return reinterpret_cast<uint64_t>(Fn);
}
uint64_t helperAddr(uint64_t (*Fn)(NativeCtx *, uint64_t, uint64_t)) {
  return reinterpret_cast<uint64_t>(Fn);
}
uint64_t helperAddr(uint64_t (*Fn)(NativeCtx *, uint64_t, uint64_t,
                                   uint64_t)) {
  return reinterpret_cast<uint64_t>(Fn);
}
uint64_t helperAddr(void (*Fn)(NativeCtx *, uint64_t)) {
  return reinterpret_cast<uint64_t>(Fn);
}

HelperTable makeHelperTable() {
  HelperTable T;
  T.NewArray = helperAddr(rtNewArray);
  T.Div32 = helperAddr(rtDiv32);
  T.Rem32 = helperAddr(rtRem32);
  T.Div64 = helperAddr(rtDiv64);
  T.Rem64 = helperAddr(rtRem64);
  T.D2I = helperAddr(rtD2I);
  T.FCmp = helperAddr(rtFCmp);
  T.Trap = helperAddr(rtTrap);
  return T;
}

using EntryFn = uint64_t (*)(NativeCtx *, const uint64_t *);

} // namespace

struct NativeModule::Impl {
  NativeOptions Opts;
  std::unique_ptr<MModule> MIR;
  CodeBuffer Code;
  std::vector<void *> FnTable; ///< Entry pointer per function index.
  NativeCompileInfo Info;
};

NativeModule::NativeModule() : P(new Impl) {}
NativeModule::~NativeModule() = default;

bool NativeModule::hostSupported() {
#if defined(__x86_64__) || defined(_M_X64)
  return CodeBuffer::hostSupported();
#else
  return false;
#endif
}

const NativeCompileInfo &NativeModule::info() const { return P->Info; }
const MModule &NativeModule::machineModule() const { return *P->MIR; }

std::unique_ptr<NativeModule>
NativeModule::compile(const Module &M, const NativeOptions &Opts,
                      std::string *Error) {
  auto Fail = [&](const std::string &Why) -> std::unique_ptr<NativeModule> {
    if (Error)
      *Error = Why;
    return nullptr;
  };
  if (!hostSupported())
    return Fail("native execution requires an x86-64 POSIX host");

  verifyModuleOrDie(M);

  uint64_t Start = wallNowNanos();
  std::unique_ptr<NativeModule> NM(new NativeModule);
  NM->P->Opts = Opts;

  NM->P->MIR = lowerModule(M, &NM->P->Info.Lowering);
  MModule &MIR = *NM->P->MIR;

  for (auto &MF : MIR.Functions) {
    RegAllocResult RA = allocateRegisters(*MF, Opts.RegAlloc);
    NM->P->Info.SpillSlots += RA.NumSpillSlots;
    NM->P->Info.SpilledIntervals += RA.NumSpilledIntervals;
    NM->P->Info.SpillLoads += RA.NumSpillLoads;
    NM->P->Info.SpillStores += RA.NumSpillStores;
    std::string Problem = verifyMachineFunction(*MF, &RA.Intervals);
    if (!Problem.empty())
      reportFatalError("machine verifier: " + MF->name() + ": " + Problem);
  }

  EmittedModule EM = emitModule(MIR, makeHelperTable());
  NM->P->Info.CodeBytes = EM.Code.size();

  if (!NM->P->Code.allocate(EM.Code.size()))
    return Fail("cannot map a code buffer");
  std::memcpy(NM->P->Code.data(), EM.Code.data(), EM.Code.size());
  if (!NM->P->Code.makeExecutable())
    return Fail("cannot make the code buffer executable (W^X-restricted "
                "environment)");

  NM->P->FnTable.resize(MIR.Functions.size());
  for (size_t Index = 0; Index < MIR.Functions.size(); ++Index)
    NM->P->FnTable[Index] = NM->P->Code.data() + EM.FunctionOffsets[Index];

  NM->P->Info.CompileNanos = wallNowNanos() - Start;

  return NM;
}

ExecResult NativeModule::run(const std::string &FuncName,
                             const std::vector<uint64_t> &Args) {
  MFunction *MF = P->MIR->find(FuncName);
  if (!MF)
    reportFatalError("native run of unknown function '" + FuncName + "'");
  if (Args.size() != MF->NumParams)
    reportFatalError("native run of '" + FuncName +
                     "': argument count mismatch");

  NativeRuntime RT;
  RT.Opts = &P->Opts;

  int64_t Fuel = P->Opts.MaxSteps > static_cast<uint64_t>(INT64_MAX)
                     ? INT64_MAX
                     : static_cast<int64_t>(P->Opts.MaxSteps);
  NativeCtx Ctx;
  Ctx.Fuel = Fuel;
  Ctx.Depth = 0;
  Ctx.MaxDepth = static_cast<int32_t>(MaxCallDepth);
  Ctx.FnTable = P->FnTable.data();
  Ctx.RT = &RT;
  Ctx.Arrays = nullptr;
  Ctx.NumArrays = 0;

  ExecResult Result;
  uint64_t Ret = 0;
  if (setjmp(RT.Unwind) == 0) {
    EntryFn Entry =
        reinterpret_cast<EntryFn>(P->FnTable[MF->index()]);
    Ret = Entry(&Ctx, Args.data());
  }
  Result.Trap = RT.Trap;
  Result.TrapMessage = RT.TrapMessage;
  if (Result.Trap == TrapKind::None)
    Result.ReturnValue = Ret;
  // Fuel is charged per block head for the block's whole IR cost, so this
  // matches the interpreter's instruction count on complete blocks and
  // slightly overcounts a block a trap cut short.
  Result.ExecutedInstructions =
      static_cast<uint64_t>(Fuel - (Ctx.Fuel < 0 ? 0 : Ctx.Fuel));
  return Result;
}
