//===- tests/codegen_test.cpp - Native backend tests -----------------------------===//
//
// Exercises the baseline x86-64 backend layer by layer: lowering to
// machine IR, live-interval construction on branchy and loopy CFGs,
// linear-scan allocation under artificially tight register pools (the
// k+1-values-on-k-registers spill round-trips), the machine verifier's
// structural checks, and — on hosts that can execute x86-64 — full
// native-vs-interpreter parity on hand-built functions and the pinned
// corpus programs, including trap kinds, the call-depth guard, and the
// fuel-based step limit.
//
//===---------------------------------------------------------------------------===//

#include "codegen/LiveIntervals.h"
#include "codegen/Lowering.h"
#include "codegen/MachineVerifier.h"
#include "codegen/NativeEngine.h"
#include "codegen/RegAlloc.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "target/TargetInfo.h"

#include <fstream>
#include <sstream>
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
  IOpts.MaxCallDepth = NOpts.MaxCallDepth;
  IOpts.MaxArrayLen = NOpts.MaxArrayLen;
  ExecResult Want = Interpreter(M, IOpts).run("main", Args);

  std::string Error;
  auto NM = NativeModule::compile(M, NOpts, &Error);
  ASSERT_NE(NM, nullptr) << Error;
  ExecResult Got = NM->run("main", Args);

  EXPECT_EQ(Got.Trap, Want.Trap)
      << "native trap '" << trapKindName(Got.Trap) << "' vs interpreter '"
      << trapKindName(Want.Trap) << "'";
  if (Want.Trap == TrapKind::None && Got.Trap == TrapKind::None)
    EXPECT_EQ(Got.ReturnValue, Want.ReturnValue);
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
    EXPECT_TRUE(BL.LiveIn[BlockId][BaseV - FirstVirtReg])
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

  NativeOptions Opts;
  Opts.MaxCallDepth = 64;
  expectNativeMatchesInterp(M, {10}, Opts);   // Completes: 55.
  expectNativeMatchesInterp(M, {1000}, Opts); // StackOverflow on both.
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

  std::string Path =
      std::string(SXE_SOURCE_DIR) + "/tests/corpus/" + GetParam() + ".sxir";
  std::ifstream In(Path);
  ASSERT_TRUE(static_cast<bool>(In)) << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  ParseResult Parsed = parseModule(Buffer.str());
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
  if (Want.Trap == TrapKind::None && Got.Trap == TrapKind::None)
    EXPECT_EQ(Got.ReturnValue, Want.ReturnValue) << GetParam();
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
                                           "generated_large"));

} // namespace
