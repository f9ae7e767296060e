//===- codegen/Emitter.cpp - Machine IR to x86-64 bytes ----------------------===//

#include "codegen/Emitter.h"

#include "codegen/X86Encoder.h"
#include "interp/Interpreter.h"
#include "support/Error.h"

#include <cstddef>
#include <map>

using namespace sxe;

uint64_t HelperTable::address(MHelper H) const {
  switch (H) {
  case MHelper::None:
    break;
  case MHelper::NewArray:
    return NewArray;
  case MHelper::Div32:
    return Div32;
  case MHelper::Rem32:
    return Rem32;
  case MHelper::Div64:
    return Div64;
  case MHelper::Rem64:
    return Rem64;
  case MHelper::D2I:
    return D2I;
  case MHelper::FCmp:
    return FCmp;
  case MHelper::Trap:
    return Trap;
  }
  sxeUnreachable("no helper address for MHelper::None");
}

namespace {

constexpr int32_t ArgsPtrDisp = -48;
constexpr int32_t SavedRegsBytes = 40;

int32_t slotDisp(uint32_t Slot) {
  return -56 - 8 * static_cast<int32_t>(Slot);
}

/// log2(sizeof(NativeArrayDesc)): scales handle - 1 to a table offset.
constexpr uint8_t ArrayDescShift = 4;
static_assert(sizeof(NativeArrayDesc) == 1u << ArrayDescShift,
              "array table scaling disagrees with NativeArrayDesc");

class FunctionEmitter {
public:
  FunctionEmitter(const MFunction &MF, const HelperTable &Helpers)
      : MF(MF), Helpers(Helpers) {}

  std::vector<uint8_t> emit();

private:
  void emitPrologue();
  void emitEpilogue();
  void emitInst(const MInst &I, const MBlock &B);
  void emitStagedArgs(const std::vector<uint32_t> &Uses);
  void emitCallResult(uint32_t Def);
  uint32_t stage(uint32_t Operand, uint32_t Scratch);
  void emitArrayDesc(uint32_t Handle, uint64_t NullTrap);
  void emitArrayIndex(uint32_t Index);
  void emitArrayAccess(const MInst &I);
  /// Records a pending jump to \p Target's block head.
  void branchTo(size_t Fixup, const MBlock *Target) {
    BlockFixups.push_back({Fixup, Target->id()});
  }
  /// Jcc into the out-of-line stub that calls rt_trap with \p Code (a
  /// TrapKind, possibly with TrapFromArrayLen).
  void trapIf(X86Cond Cond, uint64_t Code) {
    TrapFixups[Code].push_back(A.jccRel32(Cond));
  }
  void trapIf(X86Cond Cond, TrapKind Kind) {
    trapIf(Cond, static_cast<uint64_t>(Kind));
  }

  const MFunction &MF;
  const HelperTable &Helpers;
  X86Assembler A;
  int32_t FrameBytes = 0;
  std::vector<size_t> BlockOffsets;
  std::vector<std::pair<size_t, uint32_t>> BlockFixups;
  std::map<uint64_t, std::vector<size_t>> TrapFixups;
};

void FunctionEmitter::emitPrologue() {
  A.pushR(RBP);
  A.movRR64(RBP, RSP);
  A.pushR(RBX);
  A.pushR(R12);
  A.pushR(R13);
  A.pushR(R14);
  A.pushR(R15);

  // 8 bytes for the args pointer, the spill area, the outgoing-argument
  // area; padded so RSP stays 16-byte aligned at every call instruction.
  int32_t Base = 8 + 8 * static_cast<int32_t>(MF.NumSpillSlots) +
                 8 * static_cast<int32_t>(MF.MaxCallArgs);
  FrameBytes = Base % 16 == 8 ? Base : Base + 8;
  A.subRspImm32(FrameBytes);

  A.movRR64(R15, RDI);
  A.movMR64(RBP, ArgsPtrDisp, RSI);

  // Call-depth budget: ++ctx->Depth; if (Depth > MaxDepth) -> overflow.
  A.incM32(R15, NativeCtxLayout::DepthOffset);
  A.movRM32(RAX, R15, NativeCtxLayout::MaxDepthOffset);
  A.cmpM32R(R15, NativeCtxLayout::DepthOffset, RAX);
  trapIf(X86Cond::G, TrapKind::StackOverflow);
}

void FunctionEmitter::emitEpilogue() {
  A.decM32(R15, NativeCtxLayout::DepthOffset);
  A.leaRM(RSP, RBP, -SavedRegsBytes);
  A.popR(R15);
  A.popR(R14);
  A.popR(R13);
  A.popR(R12);
  A.popR(RBX);
  A.popR(RBP);
  A.ret();
}

/// Writes every argument, one at a time, into the outgoing area at
/// [rsp+8j]. Going through memory sidesteps the parallel-move problem:
/// no ABI register is written while another argument still lives in it.
void FunctionEmitter::emitStagedArgs(const std::vector<uint32_t> &Uses) {
  for (size_t J = 0; J < Uses.size(); ++J) {
    uint32_t U = Uses[J];
    int32_t OutDisp = 8 * static_cast<int32_t>(J);
    if (isSlotRef(U)) {
      A.movRM64(RAX, RBP, slotDisp(slotOfRef(U)));
      A.movMR64(RSP, OutDisp, RAX);
    } else {
      A.movMR64(RSP, OutDisp, U);
    }
  }
}

void FunctionEmitter::emitCallResult(uint32_t Def) {
  if (Def == MNoReg)
    return;
  if (isSlotRef(Def))
    A.movMR64(RBP, slotDisp(slotOfRef(Def)), RAX);
  else if (Def != RAX)
    A.movRR64(Def, RAX);
}

/// Returns where \p Operand can be read as a register: itself, or
/// \p Scratch after loading it when it is a slot reference.
uint32_t FunctionEmitter::stage(uint32_t Operand, uint32_t Scratch) {
  if (!isSlotRef(Operand))
    return Operand;
  A.movRM64(Scratch, RBP, slotDisp(slotOfRef(Operand)));
  return Scratch;
}

/// RAX = &table[Handle - 1] once Handle - 1 <u count; a null handle wraps
/// to 2^64 - 1 and fails the same unsigned compare.
void FunctionEmitter::emitArrayDesc(uint32_t Handle, uint64_t NullTrap) {
  A.leaRM(RAX, stage(Handle, RAX), -1);
  A.cmpRM64(RAX, R15, NativeCtxLayout::ArrayCountOffset);
  trapIf(X86Cond::AE, NullTrap);
  A.shlImm64(RAX, ArrayDescShift);
  A.addRM64(RAX, R15, NativeCtxLayout::ArrayTableOffset);
}

/// RCX = low32(Index) once it is below the length of RAX's array: the
/// Java bounds check compares 32 bits. The address then uses the full
/// register, so a disagreeing upper half traps WildAddress; one 64-bit
/// compare suffices because the length is below 2^31.
void FunctionEmitter::emitArrayIndex(uint32_t Index) {
  if (isSlotRef(Index))
    A.movRM32(RCX, RBP, slotDisp(slotOfRef(Index)));
  else
    A.movRR32(RCX, Index);
  A.cmpRM64(RCX, RAX, static_cast<int32_t>(offsetof(NativeArrayDesc, Len)));
  trapIf(X86Cond::AE, TrapKind::BoundsCheck);
  if (isSlotRef(Index))
    A.cmpRM64(RCX, RBP, slotDisp(slotOfRef(Index)));
  else
    A.cmpRR(/*W64=*/true, RCX, Index);
  trapIf(X86Cond::NE, TrapKind::WildAddress);
}

/// ArrLen/ArrLoad/ArrStore: the checks in the interpreter's order (null,
/// bounds, wild address), then a [data + index*8] access with the element
/// type's mask. Operands are registers or slot references; RAX, RCX and
/// RDX, which the allocator never hands out, stage them.
void FunctionEmitter::emitArrayAccess(const MInst &I) {
  if (I.Op == MOp::ArrLen) {
    emitArrayDesc(I.Uses[0], static_cast<uint64_t>(TrapKind::NullArray) |
                                 TrapFromArrayLen);
    uint32_t Dst = isSlotRef(I.Def) ? RAX : I.Def;
    A.movRM64(Dst, RAX, static_cast<int32_t>(offsetof(NativeArrayDesc, Len)));
    if (Dst != I.Def)
      A.movMR64(RBP, slotDisp(slotOfRef(I.Def)), RAX);
    return;
  }

  emitArrayDesc(I.Uses[0], static_cast<uint64_t>(TrapKind::NullArray));
  emitArrayIndex(I.Uses[1]);
  A.movRM64(RAX, RAX, static_cast<int32_t>(offsetof(NativeArrayDesc, Data)));
  Type ElemTy = static_cast<Type>(I.Imm);

  if (I.Op == MOp::ArrLoad) {
    uint32_t Dst = isSlotRef(I.Def) ? RAX : I.Def;
    // Narrow loads zero-extend: the x86_64 model (loadSignExtends is
    // false), and the same mask the store applied.
    switch (ElemTy) {
    case Type::I8:
      A.movzx8RMIdx(Dst, RAX, RCX);
      break;
    case Type::I16:
    case Type::U16:
      A.movzx16RMIdx(Dst, RAX, RCX);
      break;
    case Type::I32:
      A.movRMIdx32(Dst, RAX, RCX);
      break;
    default:
      A.movRMIdx64(Dst, RAX, RCX);
      break;
    }
    if (Dst != I.Def)
      A.movMR64(RBP, slotDisp(slotOfRef(I.Def)), RAX);
    return;
  }

  // Every slot holds 64 bits; a narrow element is stored zero-extended.
  uint32_t Value = stage(I.Uses[2], RDX);
  switch (ElemTy) {
  case Type::I8:
    A.movzx8(RDX, Value);
    Value = RDX;
    break;
  case Type::I16:
  case Type::U16:
    A.movzx16(RDX, Value);
    Value = RDX;
    break;
  case Type::I32:
    A.movRR32(RDX, Value);
    Value = RDX;
    break;
  default:
    break;
  }
  A.movMIdxR64(RAX, RCX, Value);
}

void FunctionEmitter::emitInst(const MInst &I, const MBlock &B) {
  bool W64 = I.W == Width::W64;
  switch (I.Op) {
  case MOp::MovImm:
    A.movImm64(I.Def, static_cast<uint64_t>(I.Imm));
    return;
  case MOp::MovRR:
    if (I.Def != I.Uses[0])
      A.movRR64(I.Def, I.Uses[0]);
    return;
  case MOp::Mov32:
    // Always emitted: `mov eax, eax` still clears the upper half.
    A.movRR32(I.Def, I.Uses[0]);
    return;

  case MOp::Add:
    A.addRR(W64, I.Def, I.Uses[1]);
    return;
  case MOp::Sub:
    A.subRR(W64, I.Def, I.Uses[1]);
    return;
  case MOp::IMul:
    A.imulRR(W64, I.Def, I.Uses[1]);
    return;
  case MOp::And:
    A.andRR(W64, I.Def, I.Uses[1]);
    return;
  case MOp::Or:
    A.orRR(W64, I.Def, I.Uses[1]);
    return;
  case MOp::Xor:
    A.xorRR(W64, I.Def, I.Uses[1]);
    return;
  case MOp::Shl:
    A.movRR64(RCX, I.Uses[1]);
    A.shlCl(W64, I.Def);
    return;
  case MOp::Shr:
    A.movRR64(RCX, I.Uses[1]);
    A.shrCl(W64, I.Def);
    return;
  case MOp::Sar:
    A.movRR64(RCX, I.Uses[1]);
    A.sarCl(W64, I.Def);
    return;
  case MOp::Neg:
    A.negR(W64, I.Def);
    return;
  case MOp::Not:
    A.notR(W64, I.Def);
    return;

  case MOp::Movsx8:
    A.movsx8(I.Def, I.Uses[0]);
    return;
  case MOp::Movsx16:
    A.movsx16(I.Def, I.Uses[0]);
    return;
  case MOp::Movsx32:
    A.movsxd(I.Def, I.Uses[0]);
    return;
  case MOp::Movzx8:
    A.movzx8(I.Def, I.Uses[0]);
    return;
  case MOp::Movzx16:
    A.movzx16(I.Def, I.Uses[0]);
    return;

  case MOp::CmpSet:
    A.cmpRR(W64, I.Uses[0], I.Uses[1]);
    A.setccCl(condForPred(I.Pred));
    A.movzxCl32(I.Def);
    return;

  case MOp::FAdd:
  case MOp::FSub:
  case MOp::FMul:
  case MOp::FDiv:
    A.movqXmmR(0, I.Uses[0]);
    A.movqXmmR(1, I.Uses[1]);
    if (I.Op == MOp::FAdd)
      A.addsd01();
    else if (I.Op == MOp::FSub)
      A.subsd01();
    else if (I.Op == MOp::FMul)
      A.mulsd01();
    else
      A.divsd01();
    A.movqRXmm(I.Def, 0);
    return;
  case MOp::FNeg:
    A.movqXmmR(0, I.Uses[0]);
    A.movImm64(RCX, 0x8000000000000000ULL);
    A.movqXmmR(1, RCX);
    A.xorpd01();
    A.movqRXmm(I.Def, 0);
    return;
  case MOp::CvtSi2Sd:
    A.cvtsi2sd0(I.Uses[0]);
    A.movqRXmm(I.Def, 0);
    return;

  case MOp::LoadParam:
    A.movRM64(RAX, RBP, ArgsPtrDisp);
    A.movRM64(I.Def, RAX, 8 * static_cast<int32_t>(I.Imm));
    return;

  case MOp::ArrLen:
  case MOp::ArrLoad:
  case MOp::ArrStore:
    emitArrayAccess(I);
    return;

  case MOp::CallFn: {
    emitStagedArgs(I.Uses);
    A.movRR64(RDI, R15);
    A.leaRM(RSI, RSP, 0);
    A.movRM64(RAX, R15, NativeCtxLayout::FnTableOffset);
    A.movRM64(RAX, RAX, 8 * static_cast<int32_t>(I.Callee));
    A.callR(RAX);
    emitCallResult(I.Def);
    return;
  }
  case MOp::CallHelper: {
    emitStagedArgs(I.Uses);
    static const uint32_t AbiRegs[] = {RSI, RDX, RCX, R8};
    unsigned NumArgs = static_cast<unsigned>(I.Uses.size());
    if (NumArgs > 4)
      reportFatalError("codegen: helper call with more than four arguments");
    A.movRR64(RDI, R15);
    for (unsigned Index = 0; Index < NumArgs; ++Index)
      A.movRM64(AbiRegs[Index], RSP, 8 * static_cast<int32_t>(Index));
    // FCmp and Trap carry a payload (predicate or trap kind) as the
    // trailing argument.
    bool HasPayload = I.Helper == MHelper::FCmp || I.Helper == MHelper::Trap;
    if (HasPayload)
      A.movImm64(AbiRegs[NumArgs], static_cast<uint64_t>(I.Imm));
    A.movImm64(RAX, Helpers.address(I.Helper));
    A.callR(RAX);
    if (I.Helper == MHelper::Trap) {
      A.ud2(); // rt_trap longjmps and never returns.
      return;
    }
    emitCallResult(I.Def);
    return;
  }

  case MOp::TestJnz: {
    A.testRR64(I.Uses[0], I.Uses[0]);
    branchTo(A.jccRel32(X86Cond::NE), I.Succs[0]);
    if (I.Succs[1]->id() != B.id() + 1)
      branchTo(A.jmpRel32(), I.Succs[1]);
    return;
  }
  case MOp::JmpB:
    if (I.Succs[0]->id() != B.id() + 1)
      branchTo(A.jmpRel32(), I.Succs[0]);
    return;
  case MOp::RetR:
    if (!I.Uses.empty()) {
      if (I.Uses[0] != RAX)
        A.movRR64(RAX, I.Uses[0]);
    } else {
      A.xorRR(false, RAX, RAX);
    }
    emitEpilogue();
    return;

  case MOp::SpillStore:
    A.movMR64(RBP, slotDisp(static_cast<uint32_t>(I.Imm)), I.Uses[0]);
    return;
  case MOp::SpillLoad:
    A.movRM64(I.Def, RBP, slotDisp(static_cast<uint32_t>(I.Imm)));
    return;
  }
  sxeUnreachable("invalid MOp enumerator in emitter");
}

std::vector<uint8_t> FunctionEmitter::emit() {
  emitPrologue();

  for (const auto &BP : MF.Blocks) {
    BlockOffsets.push_back(A.size());
    if (BP->FuelCost > 0) {
      A.subM64Imm32(R15, NativeCtxLayout::FuelOffset,
                    static_cast<int32_t>(BP->FuelCost));
      trapIf(X86Cond::S, TrapKind::StepLimit);
    }
    for (const MInst &I : BP->Insts)
      emitInst(I, *BP);
  }

  // Out-of-line trap stubs: raise the kind and never come back (rt_trap
  // longjmps to the trampoline's setjmp).
  for (auto &Entry : TrapFixups) {
    size_t StubOffset = A.size();
    for (size_t Fixup : Entry.second)
      A.patchRel32(Fixup, StubOffset);
    A.movRR64(RDI, R15);
    A.movImm64(RSI, Entry.first);
    A.movImm64(RAX, Helpers.Trap);
    A.callR(RAX);
    A.ud2();
  }

  for (const auto &Fixup : BlockFixups)
    A.patchRel32(Fixup.first, BlockOffsets[Fixup.second]);

  return A.code();
}

} // namespace

EmittedModule sxe::emitModule(const MModule &MM, const HelperTable &Helpers) {
  EmittedModule EM;
  for (const auto &MF : MM.Functions) {
    EM.FunctionOffsets.push_back(EM.Code.size());
    std::vector<uint8_t> Bytes = FunctionEmitter(*MF, Helpers).emit();
    EM.Code.insert(EM.Code.end(), Bytes.begin(), Bytes.end());
  }
  return EM;
}
