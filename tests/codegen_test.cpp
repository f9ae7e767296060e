//===- tests/codegen_test.cpp - Native backend tests -----------------------------===//
//
// Exercises the baseline x86-64 backend layer by layer: lowering to
// machine IR, live-interval construction on branchy and loopy CFGs,
// linear-scan allocation under artificially tight register pools (the
// k+1-values-on-k-registers spill round-trips), the machine verifier's
// structural checks, byte-exact encodings of the array-access forms, and —
// on hosts that can execute x86-64 — full native-vs-interpreter parity on
// hand-built functions and the pinned corpus programs, including trap
// kinds, the call-depth guard, and the fuel-based step limit. The inline
// array access gets one trigger per emitted check and element mask.
//
//===---------------------------------------------------------------------------===//

#include "codegen/LiveIntervals.h"
#include "codegen/Lowering.h"
#include "codegen/MachineVerifier.h"
#include "codegen/NativeEngine.h"
#include "codegen/RegAlloc.h"
#include "codegen/X86Encoder.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "target/TargetInfo.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

using namespace sxe;

namespace {

/// Interpreter options that model the same machine the native code runs
/// on: Machine semantics on the x86_64 target.
InterpOptions x86MachineOptions() {
  InterpOptions Options;
  Options.Target = &TargetInfo::x86_64();
  Options.Semantics = ExecSemantics::Machine;
  return Options;
}

/// Runs \p M both natively and under the x86_64-model interpreter and
/// expects identical trap kind and (on clean exit) return value.
void expectNativeMatchesInterp(Module &M, const std::vector<uint64_t> &Args = {},
                               const NativeOptions &NOpts = {}) {
  if (!NativeModule::hostSupported())
    GTEST_SKIP() << "host cannot execute emitted x86-64 code";

  InterpOptions IOpts = x86MachineOptions();
  IOpts.MaxSteps = NOpts.MaxSteps;
  IOpts.MaxArrayLen = NOpts.MaxArrayLen;
  ExecResult Want = Interpreter(M, IOpts).run("main", Args);

  std::string Error;
  auto NM = NativeModule::compile(M, NOpts, &Error);
  ASSERT_NE(NM, nullptr) << Error;
  ExecResult Got = NM->run("main", Args);

  EXPECT_EQ(Got.Trap, Want.Trap)
      << "native trap '" << trapKindName(Got.Trap) << "' vs interpreter '"
      << trapKindName(Want.Trap) << "'";
  if (Want.Trap == TrapKind::None && Got.Trap == TrapKind::None) {
    EXPECT_EQ(Got.ReturnValue, Want.ReturnValue);
  }
}

/// Parses \p Text, which must be a valid module.
std::unique_ptr<Module> parseOrDie(const std::string &Text) {
  ParseResult Parsed = parseModule(Text);
  if (!Parsed.ok())
    ADD_FAILURE() << Parsed.Error;
  return std::move(Parsed.M);
}

// --- Lowering ---------------------------------------------------------------

TEST(LoweringTest, ProducesTwoAddressMachineIR) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg A = F->addParam(Type::I64, "a");
  Reg B = F->addParam(Type::I64, "b");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg Sum = Bld.add64(A, B, "sum");
  Bld.ret(Sum);

  LoweringStats Stats;
  auto MIR = lowerModule(M, &Stats);
  ASSERT_EQ(MIR->Functions.size(), 1u);
  MFunction &MF = *MIR->Functions[0];
  EXPECT_EQ(MF.NumParams, 2u);
  EXPECT_EQ(Stats.Functions, 1u);
  EXPECT_GT(Stats.MachineInsts, 0u);

  // The entry block loads both parameters before any body instruction.
  ASSERT_FALSE(MF.Blocks.empty());
  const auto &Entry = MF.Blocks.front()->Insts;
  ASSERT_GE(Entry.size(), 3u);
  EXPECT_EQ(Entry[0].Op, MOp::LoadParam);
  EXPECT_EQ(Entry[1].Op, MOp::LoadParam);

  // Two-address discipline: every ALU instruction reads its Def.
  for (const auto &Blk : MF.Blocks)
    for (const MInst &I : Blk->Insts)
      if (I.Op >= MOp::Add && I.Op <= MOp::Not) {
        ASSERT_FALSE(I.Uses.empty());
        EXPECT_EQ(I.Uses[0], I.Def);
      }

  std::string Text = printMachineFunction(MF);
  EXPECT_NE(Text.find("mfunc main"), std::string::npos);
  EXPECT_NE(Text.find("loadparam"), std::string::npos);
}

TEST(LoweringTest, ConversionsBecomeExplicitInstructions) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg A = F->addParam(Type::I64, "a");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg S = Bld.sext(16, A, "s");
  Reg Z = Bld.zext32(S, "z");
  Bld.ret(Z);

  LoweringStats Stats;
  auto MIR = lowerModule(M, &Stats);
  EXPECT_EQ(Stats.Conversions, 2u);
  std::string Text = printMachineFunction(*MIR->Functions[0]);
  EXPECT_NE(Text.find("movsx16"), std::string::npos);
  EXPECT_NE(Text.find("movl"), std::string::npos);
}

TEST(LoweringTest, ZeroInitsExactlyTheLocalsReadBeforeWritten) {
  // The interpreter zero-initializes locals, so native code must zero
  // every vreg live into the entry block: `maybe` is read on the else
  // path before any write; `always` is written on both paths first; the
  // parameters arrive loaded.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg P = F->addParam(Type::I64, "p");
  Reg Q = F->addParam(Type::I64, "q");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  BasicBlock *Join = F->createBlock("join");
  Reg Maybe = F->newReg(Type::I64, "maybe");
  Reg Always = F->newReg(Type::I64, "always");
  Bld.br(P, Then, Else);
  Bld.setBlock(Then);
  Bld.constTo(Maybe, 5);
  Bld.constTo(Always, 1);
  Bld.jmp(Join);
  Bld.setBlock(Else);
  Bld.constTo(Always, 2);
  Bld.jmp(Join);
  Bld.setBlock(Join);
  Reg Sum = Bld.add64(Maybe, Always, "sum");
  Bld.ret(Bld.add64(Sum, Q, "out"));

  LoweringStats Stats;
  auto MIR = lowerModule(M, &Stats);
  const MFunction &MF = *MIR->Functions[0];
  EXPECT_EQ(Stats.ZeroInits, 1u);

  auto ZeroesOf = [&](Reg R) {
    unsigned Count = 0;
    for (const auto &Blk : MF.Blocks)
      for (const MInst &I : Blk->Insts)
        if (I.Op == MOp::MovImm && I.Imm == 0 && I.Def == FirstVirtReg + R)
          ++Count;
    return Count;
  };
  EXPECT_EQ(ZeroesOf(Maybe), 1u);
  EXPECT_EQ(ZeroesOf(Always), 0u);
  EXPECT_EQ(ZeroesOf(P), 0u);
  EXPECT_EQ(ZeroesOf(Q), 0u);

  // The zeroing sits after the parameter loads, before the body.
  const auto &Entry = MF.Blocks.front()->Insts;
  ASSERT_GE(Entry.size(), 4u);
  EXPECT_EQ(Entry[0].Op, MOp::LoadParam);
  EXPECT_EQ(Entry[1].Op, MOp::LoadParam);
  EXPECT_EQ(Entry[2].Op, MOp::MovImm);
  EXPECT_EQ(Entry[2].Def, FirstVirtReg + Maybe);
}

TEST(LoweringTest, ArrayAccessIsInlineNotAHelperCall) {
  auto M = parseOrDie(R"(
func @main(%i: i32, %x: i32) -> i32 {
  reg %a: arrayref
  reg %l: i32
  reg %v: i32
entry:
  %a = newarray.i16 %x
  arraystore.i16 %a, %i, %x
  %v = arrayload.i16 %a, %i
  %l = arraylen %a
  %v = add.w32 %v, %l
  ret %v
}
)");
  LoweringStats Stats;
  auto MIR = lowerModule(*M, &Stats);
  EXPECT_EQ(Stats.HelperCalls, 1u); // new_array only.
  std::string Text = printMachineFunction(*MIR->Functions[0]);
  EXPECT_NE(Text.find("arrstore.i16 v2 v0 v1"), std::string::npos) << Text;
  EXPECT_NE(Text.find("arrload.i16 v4 = v2 v0"), std::string::npos) << Text;
  EXPECT_NE(Text.find("arrlen v3 = v2"), std::string::npos) << Text;
}

// --- Live intervals ---------------------------------------------------------

TEST(LiveIntervalTest, ValueLiveAcrossDiamondSpansBothArms) {
  // entry defines Base; the diamond's arms define different addends; the
  // join uses Base again, so Base's interval must cover both arms.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg P = F->addParam(Type::I64, "p");
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  BasicBlock *Join = F->createBlock("join");

  Bld.setBlock(Entry);
  Reg Base = Bld.add64(P, P, "base");
  Reg T = F->newReg(Type::I64, "t");
  Bld.br(P, Then, Else);
  Bld.setBlock(Then);
  Bld.constTo(T, 10);
  Bld.jmp(Join);
  Bld.setBlock(Else);
  Bld.constTo(T, 20);
  Bld.jmp(Join);
  Bld.setBlock(Join);
  Reg Out = Bld.add64(Base, T, "out");
  Bld.ret(Out);

  auto MIR = lowerModule(M);
  MFunction &MF = *MIR->Functions[0];
  BlockLiveness BL = computeBlockLiveness(MF);

  // Machine vreg of Base = FirstVirtReg + Base.
  uint32_t BaseV = FirstVirtReg + Base;
  for (uint32_t BlockId = 1; BlockId <= 2; ++BlockId) { // then, else
    EXPECT_TRUE(BL.LiveIn[BlockId].test(BaseV - FirstVirtReg))
        << "Base not live into arm " << BlockId;
  }

  auto Intervals = computeLiveIntervals(MF);
  ASSERT_FALSE(Intervals.empty());
  // Intervals arrive sorted by start.
  for (size_t Index = 1; Index < Intervals.size(); ++Index)
    EXPECT_LE(Intervals[Index - 1].Start, Intervals[Index].Start);

  const LiveInterval *BaseLI = nullptr;
  for (const auto &LI : Intervals)
    if (LI.VReg == BaseV)
      BaseLI = &LI;
  ASSERT_NE(BaseLI, nullptr);
  // It must reach the join block's use.
  uint32_t JoinStart = MF.Blocks[3]->Insts.front().Pos;
  EXPECT_GE(BaseLI->End, JoinStart);
}

TEST(LiveIntervalTest, LoopCarriedValueCoversWholeLoop) {
  // sum is redefined in the body and used at the header: live around the
  // backedge, so its interval covers the entire loop.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg N = F->addParam(Type::I64, "n");
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");

  Reg I = F->newReg(Type::I64, "i");
  Reg Sum = F->newReg(Type::I64, "sum");
  Bld.setBlock(Entry);
  Bld.constTo(I, 0);
  Bld.constTo(Sum, 0);
  Bld.jmp(Header);
  Bld.setBlock(Header);
  Reg Cond = Bld.cmp64(CmpPred::SLT, I, N, "cond");
  Bld.br(Cond, Body, Exit);
  Bld.setBlock(Body);
  Bld.binopTo(Sum, Opcode::Add, Width::W64, Sum, I);
  Reg One = Bld.constI64(1);
  Bld.binopTo(I, Opcode::Add, Width::W64, I, One);
  Bld.jmp(Header);
  Bld.setBlock(Exit);
  Bld.ret(Sum);

  auto MIR = lowerModule(M);
  MFunction &MF = *MIR->Functions[0];
  auto Intervals = computeLiveIntervals(MF);

  uint32_t SumV = FirstVirtReg + Sum;
  const LiveInterval *SumLI = nullptr;
  for (const auto &LI : Intervals)
    if (LI.VReg == SumV)
      SumLI = &LI;
  ASSERT_NE(SumLI, nullptr);

  // The interval must cover every instruction of header and body.
  uint32_t HeaderStart = MF.Blocks[1]->Insts.front().Pos;
  uint32_t BodyEnd = MF.Blocks[2]->Insts.back().Pos;
  EXPECT_LE(SumLI->Start, HeaderStart);
  EXPECT_GE(SumLI->End, BodyEnd);
}

/// The interval of IR register \p R, or null when it has none.
const LiveInterval *intervalOf(const std::vector<LiveInterval> &Intervals,
                               Reg R) {
  for (const LiveInterval &LI : Intervals)
    if (LI.VReg == FirstVirtReg + R)
      return &LI;
  return nullptr;
}

TEST(LiveIntervalTest, LiveInValueCrossesCallAtBlockHead) {
  // %x is live into `use`, whose first instruction is the call. Its
  // interval must count that call as crossed, or %x may sit in a
  // caller-saved register the call clobbers.
  auto M = parseOrDie(R"(
func @id(%a: i32) -> i32 {
entry:
  ret %a
}
func @main() -> i64 {
  reg %x: i64
  reg %k: i32
  reg %r: i32
entry:
  jmp def
use:
  %r = call @id(%k)
  ret %x
def:
  %x = const.i64 5
  jmp use
}
)");
  auto MIR = lowerModule(*M);
  MFunction &MF = *MIR->find("main");
  auto Intervals = computeLiveIntervals(MF);
  const LiveInterval *X = intervalOf(Intervals, 0);
  ASSERT_NE(X, nullptr);
  const MInst &Call = MF.Blocks[1]->Insts.front();
  ASSERT_TRUE(Call.isCall());
  EXPECT_LT(X->Start, Call.Pos);
  EXPECT_TRUE(X->CrossesCall);

  RegAllocResult RA = allocateRegisters(MF);
  const LiveInterval *Assigned = intervalOf(RA.Intervals, 0);
  ASSERT_NE(Assigned, nullptr);
  EXPECT_TRUE(Assigned->spilled() || Assigned->PhysReg == RBX ||
              Assigned->PhysReg >= R12)
      << physRegName(Assigned->PhysReg) << " does not survive the call";
}

TEST(LiveIntervalTest, CallDefDoesNotCrossItsOwnCall) {
  // %r is born at the call: the call does not clobber it, so it may take a
  // caller-saved register. %x, live into the call's block, may not.
  auto M = parseOrDie(R"(
func @id(%a: i32) -> i32 {
entry:
  ret %a
}
func @main(%x: i32) -> i32 {
  reg %r: i32
entry:
  jmp use
use:
  %r = call @id(%x)
  %r = add.w32 %r, %x
  ret %r
}
)");
  auto MIR = lowerModule(*M);
  auto Intervals = computeLiveIntervals(*MIR->find("main"));
  const LiveInterval *R = intervalOf(Intervals, 1);
  const LiveInterval *X = intervalOf(Intervals, 0);
  ASSERT_NE(R, nullptr);
  ASSERT_NE(X, nullptr);
  EXPECT_FALSE(R->CrossesCall);
  EXPECT_TRUE(X->CrossesCall);
}

// --- Register allocation ----------------------------------------------------

/// Builds a function keeping \p Live values simultaneously live, then
/// consuming them in definition order.
std::unique_ptr<Module> manyLiveValuesModule(unsigned Live) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  Reg P = F->addParam(Type::I64, "p");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  std::vector<Reg> Vals;
  for (unsigned Index = 0; Index < Live; ++Index) {
    Reg C = Bld.constI64(Index + 1);
    Vals.push_back(Bld.add64(P, C));
  }
  Reg Acc = Vals[0];
  for (unsigned Index = 1; Index < Live; ++Index)
    Acc = Bld.mul64(Acc, Vals[Index]);
  Bld.ret(Acc);
  return M;
}

TEST(RegAllocTest, KPlus1ValuesOnKRegistersSpills) {
  auto M = manyLiveValuesModule(6);
  auto MIR = lowerModule(*M);
  MFunction &MF = *MIR->Functions[0];

  RegAllocOptions Tight;
  Tight.MaxCalleeSaved = 2;
  Tight.MaxCallerSaved = 2; // k = 4 registers for >= 6 live values.
  RegAllocResult RA = allocateRegisters(MF, Tight);
  EXPECT_GT(RA.NumSpilledIntervals, 0u);
  EXPECT_GT(RA.NumSpillSlots, 0u);
  EXPECT_GT(RA.NumSpillLoads, 0u);
  EXPECT_GT(RA.NumSpillStores, 0u);

  // The rewritten function still verifies.
  EXPECT_EQ(verifyMachineFunction(MF, &RA.Intervals), "");
}

TEST(RegAllocTest, AmpleRegistersSpillNothing) {
  auto M = manyLiveValuesModule(4);
  auto MIR = lowerModule(*M);
  RegAllocResult RA = allocateRegisters(*MIR->Functions[0]);
  EXPECT_EQ(RA.NumSpilledIntervals, 0u);
  EXPECT_EQ(verifyMachineFunction(*MIR->Functions[0], &RA.Intervals), "");
}

TEST(RegAllocTest, ArrayAccessLeavesCallerSavedRegistersUsable) {
  // %x lives across a store and a load. Neither is a call, so nothing
  // forces %x into the callee-saved pool.
  auto M = parseOrDie(R"(
func @main(%a: arrayref, %i: i32, %x: i32) -> i32 {
  reg %v: i32
entry:
  arraystore.i32 %a, %i, %x
  %v = arrayload.i32 %a, %i
  %v = add.w32 %v, %x
  ret %v
}
)");
  auto MIR = lowerModule(*M);
  RegAllocResult RA = allocateRegisters(*MIR->Functions[0]);
  const LiveInterval *X = intervalOf(RA.Intervals, 2);
  ASSERT_NE(X, nullptr);
  EXPECT_FALSE(X->CrossesCall);
  EXPECT_TRUE(X->PhysReg == RSI || X->PhysReg == RDI ||
              (X->PhysReg >= R8 && X->PhysReg <= R11))
      << physRegName(X->PhysReg);
  EXPECT_EQ(verifyMachineFunction(*MIR->Functions[0], &RA.Intervals), "");
}

TEST(RegAllocTest, SpilledCodeComputesTheSameAnswer) {
  auto M = manyLiveValuesModule(10);
  NativeOptions Tight;
  Tight.RegAlloc.MaxCalleeSaved = 1;
  Tight.RegAlloc.MaxCallerSaved = 1;
  expectNativeMatchesInterp(*M, {7});

  if (NativeModule::hostSupported()) {
    std::string Error;
    auto NM = NativeModule::compile(*M, Tight, &Error);
    ASSERT_NE(NM, nullptr) << Error;
    EXPECT_GT(NM->info().SpilledIntervals, 0u);
    ExecResult Got = NM->run("main", {7});
    ExecResult Want = Interpreter(*M, x86MachineOptions()).run("main", {7});
    EXPECT_EQ(Got.ReturnValue, Want.ReturnValue);
  }
}

// --- Machine verifier -------------------------------------------------------

TEST(MachineVerifierTest, RejectsUnallocatedVirtualRegisters) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg P = F->addParam(Type::I64, "p");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.ret(Bld.add64(P, P));

  auto MIR = lowerModule(M);
  // No register allocation ran: virtual registers remain.
  EXPECT_NE(verifyMachineFunction(*MIR->Functions[0]), "");
}

TEST(MachineVerifierTest, RejectsMissingTerminator) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  F->addParam(Type::I64, "p");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.retVoid();

  auto MIR = lowerModule(M);
  MFunction &MF = *MIR->Functions[0];
  allocateRegisters(MF);
  ASSERT_EQ(verifyMachineFunction(MF), "");
  MF.Blocks.front()->Insts.pop_back(); // Drop the RetR.
  EXPECT_NE(verifyMachineFunction(MF), "");
}

TEST(MachineVerifierTest, RejectsReservedRegisters) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  F->addParam(Type::I64, "p");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.retVoid();

  auto MIR = lowerModule(M);
  MFunction &MF = *MIR->Functions[0];
  allocateRegisters(MF);
  MInst Bad(MOp::MovRR);
  Bad.Def = RSP;
  Bad.Uses.push_back(RAX);
  MF.Blocks.front()->Insts.insert(MF.Blocks.front()->Insts.begin(), Bad);
  EXPECT_NE(verifyMachineFunction(MF), "");
}

// --- x86-64 encodings of the array-access forms -----------------------------

using Bytes = std::vector<uint8_t>;

Bytes encode(void (*Emit)(X86Assembler &)) {
  X86Assembler A;
  Emit(A);
  return A.code();
}

TEST(X86EncoderTest, ScaledIndexLoads) {
  // mov rax, [rax+rcx*8]: the emitter's own form.
  EXPECT_EQ(encode([](X86Assembler &A) { A.movRMIdx64(RAX, RAX, RCX); }),
            (Bytes{0x48, 0x8B, 0x04, 0xC8}));
  // mov r9, [r13+r12*8]: REX.R/X/B, and R13 needs a zero disp8.
  EXPECT_EQ(encode([](X86Assembler &A) { A.movRMIdx64(R9, R13, R12); }),
            (Bytes{0x4F, 0x8B, 0x4C, 0xE5, 0x00}));
  // mov rdx, [rbp+rsi*8]: so does RBP.
  EXPECT_EQ(encode([](X86Assembler &A) { A.movRMIdx64(RDX, RBP, RSI); }),
            (Bytes{0x48, 0x8B, 0x54, 0xF5, 0x00}));
  // mov esi, [rax+rcx*8]: no REX at all.
  EXPECT_EQ(encode([](X86Assembler &A) { A.movRMIdx32(RSI, RAX, RCX); }),
            (Bytes{0x8B, 0x34, 0xC8}));
  // movzx edi, byte [rax+rcx*8]
  EXPECT_EQ(encode([](X86Assembler &A) { A.movzx8RMIdx(RDI, RAX, RCX); }),
            (Bytes{0x0F, 0xB6, 0x3C, 0xC8}));
  // movzx eax, byte [r13+r9*8]: REX.X/B without W.
  EXPECT_EQ(encode([](X86Assembler &A) { A.movzx8RMIdx(RAX, R13, R9); }),
            (Bytes{0x43, 0x0F, 0xB6, 0x44, 0xCD, 0x00}));
  // movzx r10d, word [rax+rcx*8]: REX.R only.
  EXPECT_EQ(encode([](X86Assembler &A) { A.movzx16RMIdx(R10, RAX, RCX); }),
            (Bytes{0x44, 0x0F, 0xB7, 0x14, 0xC8}));
}

TEST(X86EncoderTest, ScaledIndexStores) {
  // mov [rax+rcx*8], r11
  EXPECT_EQ(encode([](X86Assembler &A) { A.movMIdxR64(RAX, RCX, R11); }),
            (Bytes{0x4C, 0x89, 0x1C, 0xC8}));
  // mov [r13+r9*8], rdx
  EXPECT_EQ(encode([](X86Assembler &A) { A.movMIdxR64(R13, R9, RDX); }),
            (Bytes{0x4B, 0x89, 0x54, 0xCD, 0x00}));
  // mov [rbp+rcx*8], rsi
  EXPECT_EQ(encode([](X86Assembler &A) { A.movMIdxR64(RBP, RCX, RSI); }),
            (Bytes{0x48, 0x89, 0x74, 0xCD, 0x00}));
}

TEST(X86EncoderTest, MemoryOperandAluAndImmediateShift) {
  // cmp rax, [r15+40] (disp32, as every [base+disp] operand).
  EXPECT_EQ(encode([](X86Assembler &A) { A.cmpRM64(RAX, R15, 40); }),
            (Bytes{0x49, 0x3B, 0x87, 0x28, 0x00, 0x00, 0x00}));
  // cmp rcx, [rbp-56]
  EXPECT_EQ(encode([](X86Assembler &A) { A.cmpRM64(RCX, RBP, -56); }),
            (Bytes{0x48, 0x3B, 0x8D, 0xC8, 0xFF, 0xFF, 0xFF}));
  // cmp r9, [r12+8]: an R12 base takes a SIB byte.
  EXPECT_EQ(encode([](X86Assembler &A) { A.cmpRM64(R9, R12, 8); }),
            (Bytes{0x4D, 0x3B, 0x8C, 0x24, 0x08, 0x00, 0x00, 0x00}));
  // add rax, [r15+32]
  EXPECT_EQ(encode([](X86Assembler &A) { A.addRM64(RAX, R15, 32); }),
            (Bytes{0x49, 0x03, 0x87, 0x20, 0x00, 0x00, 0x00}));
  // add r8, [r13+8]
  EXPECT_EQ(encode([](X86Assembler &A) { A.addRM64(R8, R13, 8); }),
            (Bytes{0x4D, 0x03, 0x85, 0x08, 0x00, 0x00, 0x00}));
  // shl rax, 4 and shl r11, 3
  EXPECT_EQ(encode([](X86Assembler &A) { A.shlImm64(RAX, 4); }),
            (Bytes{0x48, 0xC1, 0xE0, 0x04}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.shlImm64(R11, 3); }),
            (Bytes{0x49, 0xC1, 0xE3, 0x03}));
}

// --- Native execution: arithmetic parity ------------------------------------

TEST(NativeTest, AddW32ZeroExtendsLikeTheHardware) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg A = Bld.constI32(0x7FFFFFFF);
  Reg One = Bld.constI32(1);
  Reg Sum = Bld.add32(A, One, "sum");
  Reg Wide = F->newReg(Type::I64, "wide");
  Bld.copyTo(Wide, Sum);
  Bld.ret(Wide);
  expectNativeMatchesInterp(M);

  if (NativeModule::hostSupported()) {
    auto NM = NativeModule::compile(M);
    ASSERT_NE(NM, nullptr);
    // addl writes a 32-bit register: the result is 2^31, zero-extended.
    EXPECT_EQ(NM->run("main").ReturnValue, uint64_t(1) << 31);
  }
}

TEST(NativeTest, ShiftFamilyMatchesInterpreter) {
  for (Opcode Op : {Opcode::Shl, Opcode::Shr, Opcode::Sar}) {
    for (Width W : {Width::W32, Width::W64}) {
      Module M("m");
      Function *F = M.createFunction("main", Type::I64);
      Reg A = F->addParam(Type::I64, "a");
      Reg C = F->addParam(Type::I64, "c");
      IRBuilder Bld(F);
      Bld.startBlock("entry");
      Bld.ret(Bld.binop(Op, W, A, C));
      // Negative value, oversized count: exercises count masking and the
      // W32 zero-extension of the result.
      expectNativeMatchesInterp(M, {static_cast<uint64_t>(-7), 35});
      expectNativeMatchesInterp(M, {0xDEADBEEFCAFEBABEull, 4});
    }
  }
}

TEST(NativeTest, DivisionJavaSemantics) {
  // INT32_MIN / -1 wraps; uses parameters so no folding can hide it.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg A = F->addParam(Type::I32, "a");
  Reg B = F->addParam(Type::I32, "b");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.ret(Bld.div32(A, B));
  expectNativeMatchesInterp(
      M, {static_cast<uint64_t>(INT32_MIN), static_cast<uint64_t>(-1)});
  expectNativeMatchesInterp(M, {100, 7});
  expectNativeMatchesInterp(M, {100, 0}); // DivByZero parity.
}

TEST(NativeTest, Div64MinByMinusOneWraps) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg A = F->addParam(Type::I64, "a");
  Reg B = F->addParam(Type::I64, "b");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.ret(Bld.binop(Opcode::Div, Width::W64, A, B));
  expectNativeMatchesInterp(
      M, {static_cast<uint64_t>(INT64_MIN), static_cast<uint64_t>(-1)});
  expectNativeMatchesInterp(M, {static_cast<uint64_t>(-100), 9});
}

TEST(NativeTest, FloatingPointAndD2ISaturation) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg Big = Bld.constF64(1e18);
  Reg Two = Bld.constF64(2.0);
  Reg Prod = Bld.fmul(Big, Two, "prod");
  Reg I = Bld.d2i(Prod, "i"); // Saturates to INT32_MAX, zero-extended.
  Bld.ret(I);
  expectNativeMatchesInterp(M);
}

TEST(NativeTest, FCmpNaNOnlyNotEqualHolds) {
  for (CmpPred Pred : {CmpPred::EQ, CmpPred::NE, CmpPred::SLT, CmpPred::SGE}) {
    Module M("m");
    Function *F = M.createFunction("main", Type::I64);
    IRBuilder Bld(F);
    Bld.startBlock("entry");
    Reg Zero = Bld.constF64(0.0);
    Reg NaN = Bld.fdiv(Zero, Zero, "nan");
    Reg One = Bld.constF64(1.0);
    Bld.ret(Bld.fcmp(Pred, NaN, One));
    expectNativeMatchesInterp(M);
  }
}

TEST(NativeTest, SextAfterUnextendedW32AddCanonicalizes) {
  // The paper's core scenario: a W32 add leaves 2^31 in the register;
  // the sext32 then produces the canonical negative value.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg A = Bld.constI32(0x7FFFFFFF);
  Reg One = Bld.constI32(1);
  Reg Sum = Bld.add32(A, One, "sum");
  Bld.sextTo(Sum, 32, Sum);
  Reg Wide = F->newReg(Type::I64, "wide");
  Bld.copyTo(Wide, Sum);
  Bld.ret(Wide);
  expectNativeMatchesInterp(M);

  if (NativeModule::hostSupported()) {
    auto NM = NativeModule::compile(M);
    ASSERT_NE(NM, nullptr);
    EXPECT_EQ(static_cast<int64_t>(NM->run("main").ReturnValue), INT32_MIN);
  }
}

// --- Native execution: arrays, calls, control flow --------------------------

TEST(NativeTest, ArrayRoundTripAndTraps) {
  // Fill a[i] = i*3 over an I16 array, then sum it back.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg N = F->addParam(Type::I64, "n");
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");

  Reg I = F->newReg(Type::I64, "i");
  Reg Sum = F->newReg(Type::I64, "sum");
  Bld.setBlock(Entry);
  Reg Arr = Bld.newArray(Type::I16, N, "arr");
  Bld.constTo(I, 0);
  Bld.constTo(Sum, 0);
  Bld.jmp(Header);
  Bld.setBlock(Header);
  Reg Len = Bld.arrayLen(Arr, "len");
  Reg Cond = Bld.cmp64(CmpPred::SLT, I, Len, "cond");
  Bld.br(Cond, Body, Exit);
  Bld.setBlock(Body);
  Reg Three = Bld.constI64(3);
  Reg V = Bld.mul64(I, Three, "v");
  Bld.arrayStore(Type::I16, Arr, I, V);
  Reg Back = Bld.arrayLoad(Type::I16, Arr, I, "back");
  Bld.binopTo(Sum, Opcode::Add, Width::W64, Sum, Back);
  Reg One = Bld.constI64(1);
  Bld.binopTo(I, Opcode::Add, Width::W64, I, One);
  Bld.jmp(Header);
  Bld.setBlock(Exit);
  Bld.ret(Sum);

  expectNativeMatchesInterp(M, {50});
  expectNativeMatchesInterp(M, {0});
  // Negative length: NegativeArraySize on both engines.
  expectNativeMatchesInterp(M, {static_cast<uint64_t>(-3)});
}

TEST(NativeTest, OutOfBoundsTrapsIdentically) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg Index = F->addParam(Type::I64, "idx");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg Ten = Bld.constI64(10);
  Reg Arr = Bld.newArray(Type::I32, Ten, "arr");
  Bld.ret(Bld.arrayLoad(Type::I32, Arr, Index, "v"));
  expectNativeMatchesInterp(M, {9});
  expectNativeMatchesInterp(M, {10}); // BoundsCheck
  expectNativeMatchesInterp(M, {static_cast<uint64_t>(-1)});
}

// --- Native execution: inline array access, one trigger per check -----------

/// Runs \p M's main on both engines and expects the same trap kind, trap
/// message and return value. The interpreter's wild-address message also
/// names the function, so the native message must be a prefix of the
/// interpreter's. Returns the native result.
ExecResult expectArrayParity(const Module &M, const std::vector<uint64_t> &Args,
                             const NativeOptions &NOpts = {}) {
  ExecResult Want = Interpreter(M, x86MachineOptions()).run("main", Args);

  std::string Error;
  auto NM = NativeModule::compile(M, NOpts, &Error);
  if (!NM) {
    ADD_FAILURE() << Error;
    return {};
  }
  ExecResult Got = NM->run("main", Args);
  EXPECT_EQ(Got.Trap, Want.Trap)
      << "native trap '" << trapKindName(Got.Trap) << "' vs interpreter '"
      << trapKindName(Want.Trap) << "'";
  EXPECT_EQ(Want.TrapMessage.compare(0, Got.TrapMessage.size(),
                                     Got.TrapMessage),
            0)
      << "native '" << Got.TrapMessage << "' vs interpreter '"
      << Want.TrapMessage << "'";
  if (Want.Trap == TrapKind::None && Got.Trap == TrapKind::None) {
    EXPECT_EQ(Got.ReturnValue, Want.ReturnValue);
  }
  return Got;
}

#define REQUIRE_NATIVE_HOST()                                                  \
  do {                                                                         \
    if (!NativeModule::hostSupported())                                        \
      GTEST_SKIP() << "host cannot execute emitted x86-64 code";               \
  } while (false)

/// main(%a, %i): loads and stores through a handle the caller chooses,
/// after allocating one array (handle 1) of four elements.
const char *const HandleAccessModule = R"(
func @main(%a: arrayref, %i: i32, %store: i32) -> i32 {
  reg %n: i32
  reg %b: arrayref
  reg %v: i32
entry:
  %n = const.i32 4
  %b = newarray.i32 %n
  arraystore.i32 %b, %i, %n
  br %store, st, ld
st:
  arraystore.i32 %a, %i, %n
  ret %n
ld:
  %v = arrayload.i32 %a, %i
  ret %v
}
)";

TEST(NativeArrayTest, NullHandleTraps) {
  REQUIRE_NATIVE_HOST();
  auto M = parseOrDie(HandleAccessModule);
  for (uint64_t Store : {0, 1}) {
    ExecResult R = expectArrayParity(*M, {0, 1, Store});
    EXPECT_EQ(R.Trap, TrapKind::NullArray);
    EXPECT_EQ(R.TrapMessage, "array access through null");
  }
  // The live handle works through the same code.
  EXPECT_EQ(expectArrayParity(*M, {1, 1, 0}).ReturnValue, 4u);
}

TEST(NativeArrayTest, HandleBeyondTheTableTraps) {
  REQUIRE_NATIVE_HOST();
  auto M = parseOrDie(HandleAccessModule);
  for (uint64_t Handle : {uint64_t(2), (uint64_t(1) << 32) | 1}) {
    for (uint64_t Store : {0, 1}) {
      ExecResult R = expectArrayParity(*M, {Handle, 1, Store});
      EXPECT_EQ(R.Trap, TrapKind::NullArray) << Handle;
      EXPECT_EQ(R.TrapMessage, "array access through null");
    }
  }
}

/// main(%i): a[%i] over a five-element i32 array whose a[3] holds 77,
/// loaded or (with %store set) stored to and then a[3] loaded.
const char *const IndexAccessModule = R"(
func @main(%i: i32, %store: i32) -> i32 {
  reg %n: i32
  reg %a: arrayref
  reg %k: i32
  reg %x: i32
  reg %v: i32
entry:
  %n = const.i32 5
  %a = newarray.i32 %n
  %k = const.i32 3
  %x = const.i32 77
  arraystore.i32 %a, %k, %x
  br %store, st, ld
st:
  %x = const.i32 88
  arraystore.i32 %a, %i, %x
  %v = arrayload.i32 %a, %k
  ret %v
ld:
  %v = arrayload.i32 %a, %i
  ret %v
}
)";

TEST(NativeArrayTest, IndexEqualToLengthTraps) {
  REQUIRE_NATIVE_HOST();
  auto M = parseOrDie(IndexAccessModule);
  for (uint64_t Store : {0, 1}) {
    ExecResult R = expectArrayParity(*M, {5, Store});
    EXPECT_EQ(R.Trap, TrapKind::BoundsCheck);
    EXPECT_EQ(R.TrapMessage, "array index out of bounds");
  }
  EXPECT_EQ(expectArrayParity(*M, {3, 0}).ReturnValue, 77u);
  EXPECT_EQ(expectArrayParity(*M, {3, 1}).ReturnValue, 88u);
}

TEST(NativeArrayTest, NegativeIndexTraps) {
  REQUIRE_NATIVE_HOST();
  auto M = parseOrDie(IndexAccessModule);
  // Both the sign-extended and the zero-extended -1: the 32-bit bounds
  // check fires before the wild-address check could.
  for (uint64_t Index : {~uint64_t(0), uint64_t(0xFFFFFFFF)}) {
    for (uint64_t Store : {0, 1}) {
      ExecResult R = expectArrayParity(*M, {Index, Store});
      EXPECT_EQ(R.Trap, TrapKind::BoundsCheck);
      EXPECT_EQ(R.TrapMessage, "array index out of bounds");
    }
  }
}

TEST(NativeArrayTest, WildIndexTraps) {
  REQUIRE_NATIVE_HOST();
  auto M = parseOrDie(IndexAccessModule);
  // An in-range low half (3) under nonzero upper bits.
  const uint64_t Wild = (uint64_t(1) << 32) | 3;
  for (uint64_t Store : {0, 1}) {
    ExecResult R = expectArrayParity(*M, {Wild, Store});
    EXPECT_EQ(R.Trap, TrapKind::WildAddress);
    EXPECT_EQ(R.TrapMessage,
              "effective address disagrees with bounds-checked index");
  }
}

TEST(NativeArrayTest, NullArrayLenTraps) {
  REQUIRE_NATIVE_HOST();
  auto M = parseOrDie(R"(
func @main(%a: arrayref) -> i32 {
  reg %l: i32
entry:
  %l = arraylen %a
  ret %l
}
)");
  // No array exists, so the table is empty: every handle is null.
  for (uint64_t Handle : {0, 1}) {
    ExecResult R = expectArrayParity(*M, {Handle});
    EXPECT_EQ(R.Trap, TrapKind::NullArray);
    EXPECT_EQ(R.TrapMessage, "arraylen of null");
  }
}

TEST(NativeArrayTest, StoreThenLoadMasksEachElementType) {
  REQUIRE_NATIVE_HOST();
  // The stored register carries all 64 bits; the element keeps its width.
  // An i64 load of a[1] shows what the narrow store wrote, and a narrow
  // load of a[2], written by an i64 store, shows the load's own mask.
  const uint64_t Value = 0xFEDCBA9876543285ull;
  const std::pair<const char *, uint64_t> Cases[] = {
      {"i8", Value & 0xFF},    {"i16", Value & 0xFFFF},
      {"u16", Value & 0xFFFF}, {"i32", Value & 0xFFFFFFFF},
      {"i64", Value},
  };
  for (const auto &[Ty, Masked] : Cases) {
    std::string T = Ty;
    auto M = parseOrDie("func @main(%v: i64) -> i64 {\n"
                        "  reg %n: i32\n"
                        "  reg %a: arrayref\n"
                        "  reg %k: i32\n"
                        "  reg %j: i32\n"
                        "  reg %s: " + T + "\n"
                        "  reg %raw: i64\n"
                        "  reg %w: i64\n"
                        "entry:\n"
                        "  %n = const.i32 3\n"
                        "  %a = newarray." + T + " %n\n"
                        "  %k = const.i32 1\n"
                        "  %j = const.i32 2\n"
                        "  arraystore." + T + " %a, %k, %v\n"
                        "  %raw = arrayload.i64 %a, %k\n"
                        "  arraystore.i64 %a, %j, %v\n"
                        "  %s = arrayload." + T + " %a, %j\n"
                        "  %w = copy %s\n"
                        "  %w = add.w64 %w, %raw\n"
                        "  ret %w\n"
                        "}\n");
    ExecResult R = expectArrayParity(*M, {Value});
    EXPECT_EQ(R.Trap, TrapKind::None) << T;
    EXPECT_EQ(R.ReturnValue, Masked + Masked) << T;
  }
}

TEST(NativeArrayTest, TableRefreshesWhileTheLoopAllocates) {
  REQUIRE_NATIVE_HOST();
  // Each iteration allocates an array, which can move the descriptor
  // table; the loop keeps reading and writing the first array and the
  // newest one, so a stale table pointer or count would show.
  auto M = parseOrDie(R"(
func @main(%n: i32) -> i32 {
  reg %four: i32
  reg %three: i32
  reg %one: i32
  reg %first: arrayref
  reg %t: arrayref
  reg %i: i32
  reg %k: i32
  reg %v: i32
  reg %c: i32
  reg %sum: i32
entry:
  %four = const.i32 4
  %three = const.i32 3
  %one = const.i32 1
  %first = newarray.i32 %four
  %i = const.i32 0
  %sum = const.i32 0
  jmp head
head:
  %c = cmp.w32 slt %i, %n
  br %c, body, exit
body:
  %t = newarray.i32 %four
  %k = and.w32 %i, %three
  %v = arrayload.i32 %first, %k
  %v = add.w32 %v, %i
  arraystore.i32 %first, %k, %v
  arraystore.i32 %t, %k, %i
  %v = arrayload.i32 %t, %k
  %sum = add.w32 %sum, %v
  %i = add.w32 %i, %one
  jmp head
exit:
  %v = arrayload.i32 %first, %three
  %sum = add.w32 %sum, %v
  %v = arraylen %t
  %sum = add.w32 %sum, %v
  ret %sum
}
)");
  ExecResult R = expectArrayParity(*M, {1000});
  EXPECT_EQ(R.Trap, TrapKind::None);
  // The sum of every i, plus first[3] (the sum of i = 3, 7, ..., 999),
  // plus the newest array's length.
  EXPECT_EQ(R.ReturnValue, 499500u + 125250u + 4u);
}

TEST(NativeArrayTest, SpilledOperandsAreStagedFromTheFrame) {
  REQUIRE_NATIVE_HOST();
  auto M = parseOrDie(R"(
func @main(%i: i32, %x: i32) -> i32 {
  reg %n: i32
  reg %a: arrayref
  reg %v: i32
  reg %l: i32
entry:
  %n = const.i32 8
  %a = newarray.i16 %n
  arraystore.i16 %a, %i, %x
  %v = arrayload.i16 %a, %i
  %l = arraylen %a
  %v = add.w32 %v, %l
  ret %v
}
)");
  // No allocatable registers at all: every operand lives in a slot.
  NativeOptions NoRegs;
  NoRegs.RegAlloc.MaxCalleeSaved = 0;
  NoRegs.RegAlloc.MaxCallerSaved = 0;
  std::string Error;
  auto NM = NativeModule::compile(*M, NoRegs, &Error);
  ASSERT_NE(NM, nullptr) << Error;
  bool StoreAllSlots = false, LoadSlotDef = false, LenSlotDef = false;
  for (const auto &B : NM->machineModule().Functions[0]->Blocks)
    for (const MInst &I : B->Insts) {
      if (I.Op == MOp::ArrStore)
        StoreAllSlots = I.Uses.size() == 3 && isSlotRef(I.Uses[0]) &&
                        isSlotRef(I.Uses[1]) && isSlotRef(I.Uses[2]);
      if (I.Op == MOp::ArrLoad)
        LoadSlotDef = isSlotRef(I.Def) && isSlotRef(I.Uses[0]) &&
                      isSlotRef(I.Uses[1]);
      if (I.Op == MOp::ArrLen)
        LenSlotDef = isSlotRef(I.Def) && isSlotRef(I.Uses[0]);
    }
  EXPECT_TRUE(StoreAllSlots);
  EXPECT_TRUE(LoadSlotDef);
  EXPECT_TRUE(LenSlotDef);

  EXPECT_EQ(expectArrayParity(*M, {5, 0x12345}, NoRegs).ReturnValue,
            0x2345u + 8u);
  const uint64_t Wild = (uint64_t(1) << 32) | 5;
  EXPECT_EQ(expectArrayParity(*M, {Wild, 1}, NoRegs).Trap,
            TrapKind::WildAddress);
  EXPECT_EQ(expectArrayParity(*M, {8, 1}, NoRegs).Trap,
            TrapKind::BoundsCheck);
}

TEST(NativeTest, ExplicitTrapPropagates) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.trap();
  expectNativeMatchesInterp(M);
}

TEST(NativeTest, CallsPassArgumentsAndReturnValues) {
  Module M("m");
  Function *Callee = M.createFunction("weighted", Type::I64);
  {
    Reg A = Callee->addParam(Type::I64, "a");
    Reg B = Callee->addParam(Type::I64, "b");
    Reg C = Callee->addParam(Type::I64, "c");
    IRBuilder Bld(Callee);
    Bld.startBlock("entry");
    Reg AB = Bld.mul64(A, B, "ab");
    Bld.ret(Bld.add64(AB, C, "r"));
  }
  Function *F = M.createFunction("main", Type::I64);
  Reg P = F->addParam(Type::I64, "p");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg Two = Bld.constI64(2);
  Reg Five = Bld.constI64(5);
  Reg R1 = Bld.call(Callee, {P, Two, Five}, "r1");
  Reg R2 = Bld.call(Callee, {R1, P, R1}, "r2");
  Bld.ret(R2);
  expectNativeMatchesInterp(M, {13});
}

TEST(NativeTest, RunsAfterTheSourceModuleIsDestroyed) {
  // A NativeModule must not read the IR it was compiled from: run() looks
  // functions up by name, so names have to be owned by the machine IR.
  if (!NativeModule::hostSupported())
    GTEST_SKIP() << "host cannot execute emitted x86-64 code";
  auto M = std::make_unique<Module>("m");
  Function *Callee = M->createFunction("scale_by_three", Type::I64);
  {
    Reg A = Callee->addParam(Type::I64, "a");
    IRBuilder Bld(Callee);
    Bld.startBlock("entry");
    Bld.ret(Bld.mul64(A, Bld.constI64(3), "r"));
  }
  Function *F = M->createFunction("main", Type::I64);
  Reg P = F->addParam(Type::I64, "p");
  Reg Q = F->addParam(Type::I64, "q");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg Scaled = Bld.call(Callee, {P}, "scaled");
  Bld.ret(Bld.add64(Scaled, Q, "sum"));

  const std::vector<uint64_t> Args = {14, 5};
  ExecResult Want = Interpreter(*M, x86MachineOptions()).run("main", Args);
  ASSERT_EQ(Want.Trap, TrapKind::None);

  std::string Error;
  auto NM = NativeModule::compile(*M, {}, &Error);
  ASSERT_NE(NM, nullptr) << Error;
  M.reset();

  ExecResult Got = NM->run("main", Args);
  EXPECT_EQ(Got.Trap, TrapKind::None) << trapKindName(Got.Trap);
  EXPECT_EQ(Got.ReturnValue, Want.ReturnValue);
  EXPECT_EQ(NM->machineModule().find("scale_by_three")->name(),
            "scale_by_three");
}

TEST(NativeTest, RecursionHitsStackOverflowInLockstep) {
  // f(n) = n <= 0 ? 0 : f(n-1)+n; driven past the depth limit.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg N = F->addParam(Type::I64, "n");
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Base = F->createBlock("base");
  BasicBlock *Rec = F->createBlock("rec");
  Bld.setBlock(Entry);
  Reg Zero = Bld.constI64(0);
  Reg IsPos = Bld.cmp64(CmpPred::SGT, N, Zero, "pos");
  Bld.br(IsPos, Rec, Base);
  Bld.setBlock(Base);
  Bld.ret(Zero);
  Bld.setBlock(Rec);
  Reg One = Bld.constI64(1);
  Reg NM1 = Bld.sub64(N, One, "nm1");
  Reg Sub = Bld.call(F, {NM1}, "sub");
  Bld.ret(Bld.add64(Sub, N));

  // f(n) needs n + 1 frames: MaxCallDepth of them still complete.
  const uint64_t Deepest = MaxCallDepth - 1;
  InterpOptions IOpts = x86MachineOptions();
  ExecResult Fits = Interpreter(M, IOpts).run("main", {Deepest});
  EXPECT_EQ(Fits.Trap, TrapKind::None);
  EXPECT_EQ(Fits.ReturnValue, Deepest * (Deepest + 1) / 2);
  EXPECT_EQ(Interpreter(M, IOpts).run("main", {Deepest + 1}).Trap,
            TrapKind::StackOverflow);
  expectNativeMatchesInterp(M, {10});          // Completes: 55.
  expectNativeMatchesInterp(M, {Deepest});     // Completes at the limit.
  expectNativeMatchesInterp(M, {Deepest + 1}); // StackOverflow on both.
}

TEST(NativeTest, FuelExhaustionReportsStepLimit) {
  // while (true) {} under a tiny step budget.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  Bld.setBlock(Entry);
  Bld.jmp(Loop);
  Bld.setBlock(Loop);
  Bld.jmp(Loop);

  if (!NativeModule::hostSupported())
    GTEST_SKIP() << "host cannot execute emitted x86-64 code";
  NativeOptions Opts;
  Opts.MaxSteps = 1000;
  auto NM = NativeModule::compile(M, Opts);
  ASSERT_NE(NM, nullptr);
  ExecResult R = NM->run("main");
  EXPECT_EQ(R.Trap, TrapKind::StepLimit);
  EXPECT_GE(R.ExecutedInstructions, 1000u);
}

// --- Corpus parity ----------------------------------------------------------

class CorpusNativeParity : public ::testing::TestWithParam<const char *> {};

TEST_P(CorpusNativeParity, NativeMatchesX86Interpreter) {
  if (!NativeModule::hostSupported())
    GTEST_SKIP() << "host cannot execute emitted x86-64 code";

  ParseResult Parsed = parseModule(test::corpusSource(GetParam()));
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;

  InterpOptions IOpts = x86MachineOptions();
  IOpts.MaxSteps = 1u << 22;
  ExecResult Want = Interpreter(*Parsed.M, IOpts).run("main");

  NativeOptions NOpts;
  NOpts.MaxSteps = 1u << 22;
  std::string Error;
  auto NM = NativeModule::compile(*Parsed.M, NOpts, &Error);
  ASSERT_NE(NM, nullptr) << Error;
  ExecResult Got = NM->run("main");

  // Fuel is block-granular, so a step-limited run is compared on the
  // trap kind only (and both engines must agree it was step-limited).
  EXPECT_EQ(Got.Trap, Want.Trap)
      << GetParam() << ": native '" << trapKindName(Got.Trap)
      << "' vs interpreter '" << trapKindName(Want.Trap) << "'";
  if (Want.Trap == TrapKind::None && Got.Trap == TrapKind::None) {
    EXPECT_EQ(Got.ReturnValue, Want.ReturnValue) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusNativeParity,
                         ::testing::Values("reduced_char_compare",
                                           "reduced_loop_carried",
                                           "reduced_mixed_store",
                                           "reduced_copy_demand",
                                           "reduced_call_boundary",
                                           "reduced_w32_inductive_sext",
                                           "generated_small",
                                           "generated_medium",
                                           "generated_large",
                                           "reduced_live_in_call"));

} // namespace
