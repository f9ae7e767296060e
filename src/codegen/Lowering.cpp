//===- codegen/Lowering.cpp - IR to machine IR lowering ----------------------===//

#include "codegen/Lowering.h"

#include "codegen/LiveIntervals.h"
#include "interp/Interpreter.h"
#include "support/Error.h"

#include <cstring>
#include <unordered_map>

using namespace sxe;

namespace {

/// Lowering context for one function.
class FunctionLowering {
public:
  FunctionLowering(MFunction &MF, const Function &F,
                   const std::unordered_map<const Function *, uint32_t>
                       &FunctionIndex,
                   LoweringStats &Stats)
      : MF(MF), F(F), FunctionIndex(FunctionIndex), Stats(Stats) {}

  void lower();

private:
  /// Machine vreg holding IR register \p R.
  static uint32_t vreg(Reg R) { return FirstVirtReg + R; }

  MInst &emit(MOp Op) {
    Cur->Insts.emplace_back(Op);
    return Cur->Insts.back();
  }

  void emitMovRR(uint32_t Def, uint32_t Src) {
    MInst &I = emit(MOp::MovRR);
    I.Def = Def;
    I.Uses = {Src};
  }

  void lowerBinop(MOp Op, const Instruction &I, bool Commutative);
  void lowerUnop(MOp Op, const Instruction &I);
  void lowerConversion(MOp Op, const Instruction &I);
  void lowerHelperCall(MHelper Helper, const Instruction &I, unsigned NumArgs,
                       int64_t Payload);
  void lowerArrayAccess(MOp Op, const Instruction &I, unsigned NumOperands);
  void lowerInst(const Instruction &I);
  void insertZeroInits();

  MFunction &MF;
  const Function &F;
  const std::unordered_map<const Function *, uint32_t> &FunctionIndex;
  LoweringStats &Stats;
  std::unordered_map<const BasicBlock *, MBlock *> BlockMap;
  MBlock *Cur = nullptr;
};

/// Two-address lowering of `d = a op b`. x86 reads and writes the first
/// operand, so the destination must already hold `a` when the operation
/// issues — without clobbering a still-needed `b`.
void FunctionLowering::lowerBinop(MOp Op, const Instruction &I,
                                  bool Commutative) {
  uint32_t D = vreg(I.dest());
  uint32_t A = vreg(I.operand(0));
  uint32_t B = vreg(I.operand(1));
  Width W = I.width();

  auto EmitOp = [&](uint32_t Dst, uint32_t Src) {
    MInst &M = emit(Op);
    M.W = W;
    M.Def = Dst;
    M.Uses = {Dst, Src};
  };

  if (D == A) {
    EmitOp(D, B);
    return;
  }
  if (D != B) {
    emitMovRR(D, A);
    EmitOp(D, B);
    return;
  }
  if (Commutative) { // d == b: d op= a computes a op b.
    EmitOp(D, A);
    return;
  }
  // d == b and the operation is not commutative: build in a temp.
  uint32_t T = MF.newVirtReg();
  emitMovRR(T, A);
  EmitOp(T, B);
  emitMovRR(D, T);
}

void FunctionLowering::lowerUnop(MOp Op, const Instruction &I) {
  uint32_t D = vreg(I.dest());
  uint32_t A = vreg(I.operand(0));
  if (D != A)
    emitMovRR(D, A);
  MInst &M = emit(Op);
  M.W = I.width();
  M.Def = D;
  M.Uses = {D};
}

void FunctionLowering::lowerConversion(MOp Op, const Instruction &I) {
  ++Stats.Conversions;
  MInst &M = emit(Op);
  M.Def = vreg(I.dest());
  M.Uses = {vreg(I.operand(0))};
}

void FunctionLowering::lowerHelperCall(MHelper Helper, const Instruction &I,
                                       unsigned NumArgs, int64_t Payload) {
  ++Stats.HelperCalls;
  MInst &M = emit(MOp::CallHelper);
  M.Helper = Helper;
  M.Imm = Payload;
  if (I.hasDest())
    M.Def = vreg(I.dest());
  for (unsigned Index = 0; Index < NumArgs; ++Index)
    M.Uses.push_back(vreg(I.operand(Index)));
  if (NumArgs > MF.MaxCallArgs)
    MF.MaxCallArgs = NumArgs;
}

void FunctionLowering::lowerArrayAccess(MOp Op, const Instruction &I,
                                        unsigned NumOperands) {
  MInst &M = emit(Op);
  M.Imm = static_cast<int64_t>(I.type());
  if (I.hasDest())
    M.Def = vreg(I.dest());
  for (unsigned Index = 0; Index < NumOperands; ++Index)
    M.Uses.push_back(vreg(I.operand(Index)));
}

void FunctionLowering::lowerInst(const Instruction &I) {
  switch (I.opcode()) {
  case Opcode::ConstInt: {
    MInst &M = emit(MOp::MovImm);
    M.Def = vreg(I.dest());
    M.Imm = I.intValue();
    return;
  }
  case Opcode::ConstF64: {
    MInst &M = emit(MOp::MovImm);
    M.Def = vreg(I.dest());
    double D = I.floatValue();
    std::memcpy(&M.Imm, &D, sizeof(M.Imm));
    return;
  }
  case Opcode::Copy:
  case Opcode::JustExtended:
    // The dummy marker is semantically a move; reaching lowering it only
    // costs what a copy costs (and the census counts it separately).
    emitMovRR(vreg(I.dest()), vreg(I.operand(0)));
    return;

  case Opcode::Add:
    lowerBinop(MOp::Add, I, /*Commutative=*/true);
    return;
  case Opcode::Sub:
    lowerBinop(MOp::Sub, I, /*Commutative=*/false);
    return;
  case Opcode::Mul:
    lowerBinop(MOp::IMul, I, /*Commutative=*/true);
    return;
  case Opcode::And:
    lowerBinop(MOp::And, I, /*Commutative=*/true);
    return;
  case Opcode::Or:
    lowerBinop(MOp::Or, I, /*Commutative=*/true);
    return;
  case Opcode::Xor:
    lowerBinop(MOp::Xor, I, /*Commutative=*/true);
    return;
  case Opcode::Shl:
    lowerBinop(MOp::Shl, I, /*Commutative=*/false);
    return;
  case Opcode::Shr:
    lowerBinop(MOp::Shr, I, /*Commutative=*/false);
    return;
  case Opcode::Sar:
    lowerBinop(MOp::Sar, I, /*Commutative=*/false);
    return;
  case Opcode::Neg:
    lowerUnop(MOp::Neg, I);
    return;
  case Opcode::Not:
    lowerUnop(MOp::Not, I);
    return;

  case Opcode::Div:
    lowerHelperCall(I.isW32() ? MHelper::Div32 : MHelper::Div64, I, 2, 0);
    return;
  case Opcode::Rem:
    lowerHelperCall(I.isW32() ? MHelper::Rem32 : MHelper::Rem64, I, 2, 0);
    return;

  case Opcode::Sext8:
    lowerConversion(MOp::Movsx8, I);
    return;
  case Opcode::Sext16:
    lowerConversion(MOp::Movsx16, I);
    return;
  case Opcode::Sext32:
    lowerConversion(MOp::Movsx32, I);
    return;
  case Opcode::Zext8:
    lowerConversion(MOp::Movzx8, I);
    return;
  case Opcode::Zext16:
    lowerConversion(MOp::Movzx16, I);
    return;
  case Opcode::Zext32:
  case Opcode::Trunc32:
    lowerConversion(MOp::Mov32, I);
    return;

  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv: {
    MOp Op = I.opcode() == Opcode::FAdd   ? MOp::FAdd
             : I.opcode() == Opcode::FSub ? MOp::FSub
             : I.opcode() == Opcode::FMul ? MOp::FMul
                                          : MOp::FDiv;
    MInst &M = emit(Op);
    M.Def = vreg(I.dest());
    M.Uses = {vreg(I.operand(0)), vreg(I.operand(1))};
    return;
  }
  case Opcode::FNeg: {
    MInst &M = emit(MOp::FNeg);
    M.Def = vreg(I.dest());
    M.Uses = {vreg(I.operand(0))};
    return;
  }
  case Opcode::I2D: {
    MInst &M = emit(MOp::CvtSi2Sd);
    M.Def = vreg(I.dest());
    M.Uses = {vreg(I.operand(0))};
    return;
  }
  case Opcode::D2I:
    lowerHelperCall(MHelper::D2I, I, 1, 0);
    return;

  case Opcode::Cmp: {
    MInst &M = emit(MOp::CmpSet);
    M.W = I.width();
    M.Pred = I.pred();
    M.Def = vreg(I.dest());
    M.Uses = {vreg(I.operand(0)), vreg(I.operand(1))};
    return;
  }
  case Opcode::FCmp:
    lowerHelperCall(MHelper::FCmp, I, 2, static_cast<int64_t>(I.pred()));
    return;

  case Opcode::Br: {
    MInst &M = emit(MOp::TestJnz);
    M.Uses = {vreg(I.operand(0))};
    M.Succs[0] = BlockMap.at(I.successor(0));
    M.Succs[1] = BlockMap.at(I.successor(1));
    return;
  }
  case Opcode::Jmp: {
    MInst &M = emit(MOp::JmpB);
    M.Succs[0] = BlockMap.at(I.successor(0));
    return;
  }
  case Opcode::Ret: {
    MInst &M = emit(MOp::RetR);
    if (I.numOperands() == 1)
      M.Uses = {vreg(I.operand(0))};
    return;
  }
  case Opcode::Call: {
    MInst &M = emit(MOp::CallFn);
    M.Callee = FunctionIndex.at(I.callee());
    if (I.hasDest())
      M.Def = vreg(I.dest());
    for (unsigned Index = 0; Index < I.numOperands(); ++Index)
      M.Uses.push_back(vreg(I.operand(Index)));
    if (I.numOperands() > MF.MaxCallArgs)
      MF.MaxCallArgs = I.numOperands();
    return;
  }
  case Opcode::Trap:
    lowerHelperCall(MHelper::Trap, I, 0,
                    static_cast<int64_t>(TrapKind::ExplicitTrap));
    return;

  case Opcode::NewArray:
    lowerHelperCall(MHelper::NewArray, I, 1, 0);
    return;
  case Opcode::ArrayLen:
    lowerArrayAccess(MOp::ArrLen, I, 1);
    return;
  case Opcode::ArrayLoad:
    lowerArrayAccess(MOp::ArrLoad, I, 2);
    return;
  case Opcode::ArrayStore:
    lowerArrayAccess(MOp::ArrStore, I, 3);
    return;
  }
  sxeUnreachable("invalid Opcode enumerator in lowering");
}

/// The interpreter zero-initializes every local (JVM-like). Any vreg that
/// can be read before it is written therefore must start at zero in the
/// native frame too: exactly the vregs machine liveness finds live into
/// the entry block beyond the parameters.
void FunctionLowering::insertZeroInits() {
  std::vector<MInst> Zeroes;
  computeBlockLiveness(MF).LiveIn[0].forEach([&](size_t R) {
    if (R < MF.NumParams)
      return;
    MInst Z(MOp::MovImm);
    Z.Def = FirstVirtReg + static_cast<uint32_t>(R);
    Z.Imm = 0;
    Zeroes.push_back(Z);
    ++Stats.ZeroInits;
  });
  if (!Zeroes.empty()) {
    MBlock &Entry = *MF.Blocks[0];
    // After the parameter loads, before the lowered body.
    Entry.Insts.insert(Entry.Insts.begin() + MF.NumParams, Zeroes.begin(),
                       Zeroes.end());
  }
}

void FunctionLowering::lower() {
  MF.NumParams = F.numParams();
  MF.NextVirtReg = FirstVirtReg + F.numRegs();

  for (const auto &BB : F.blocks()) {
    MBlock *MB = MF.createBlock(BB->name());
    MB->FuelCost = static_cast<uint32_t>(BB->size());
    BlockMap[BB.get()] = MB;
  }

  for (const auto &BB : F.blocks()) {
    Cur = BlockMap.at(BB.get());
    if (BB.get() == F.entryBlock()) {
      for (uint32_t P = 0; P < MF.NumParams; ++P) {
        MInst &M = emit(MOp::LoadParam);
        M.Def = FirstVirtReg + P;
        M.Imm = static_cast<int64_t>(P);
      }
    }
    for (const Instruction &I : *BB)
      lowerInst(I);
    if (Cur->Insts.empty() || !Cur->Insts.back().isTerminator())
      reportFatalError("codegen: unterminated block " + BB->name() + " in " +
                       F.name());
  }

  insertZeroInits();

  ++Stats.Functions;
  Stats.Blocks += MF.Blocks.size();
  Stats.MachineInsts += MF.countInsts();
}

} // namespace

std::unique_ptr<MModule> sxe::lowerModule(const Module &M,
                                          LoweringStats *Stats) {
  LoweringStats Local;
  LoweringStats &S = Stats ? *Stats : Local;

  auto MM = std::make_unique<MModule>();

  std::unordered_map<const Function *, uint32_t> FunctionIndex;
  for (const auto &F : M.functions())
    FunctionIndex[F.get()] = static_cast<uint32_t>(FunctionIndex.size());

  for (const auto &F : M.functions()) {
    auto MF = std::make_unique<MFunction>(F.get(), FunctionIndex.at(F.get()));
    FunctionLowering(*MF, *F, FunctionIndex, S).lower();
    MM->Functions.push_back(std::move(MF));
  }
  return MM;
}
