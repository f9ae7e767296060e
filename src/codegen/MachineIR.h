//===- codegen/MachineIR.h - x86-64-shaped machine IR ------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine IR the baseline native backend lowers optimized sxe IR
/// into: two-address x86-64-shaped operations over an unbounded pool of
/// 64-bit virtual registers, with *explicit* conversion instructions
/// (movsx/movzx/movl) so every sign/zero extension the middle end failed
/// to eliminate costs a real machine instruction — which is what finally
/// makes the Figure 13/14 speedups hardware-real.
///
/// Register operands live in one flat numbering:
///
///   [0, NumPhysRegs)          physical GPRs (x86-64 encoding order)
///   [FirstVirtReg, SlotBase)  virtual registers (IR regs + lowering temps)
///   [SlotBase, ...)           spill-slot references, written by the
///                             register allocator (call pseudos and inline
///                             array accesses read their operands straight
///                             from the frame)
///
/// Before register allocation every register operand is virtual; after
/// allocation and spill rewriting the machine verifier checks that only
/// physical registers (plus slot references on the instructions that
/// stage them) remain.
///
/// The shape follows dreavm's register_allocation_pass.c: linear scan over
/// live intervals with spill handling runs on this IR, then the emitter
/// turns it into executable bytes (codegen/Emitter.h).
///
//===----------------------------------------------------------------------===//

#ifndef SXE_CODEGEN_MACHINEIR_H
#define SXE_CODEGEN_MACHINEIR_H

#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Opcode.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sxe {

/// Physical x86-64 general-purpose registers, in hardware encoding order
/// (the value is the ModRM/REX register number).
enum X86Reg : uint32_t {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

/// Number of physical GPRs.
constexpr uint32_t NumPhysRegs = 16;

/// First virtual register number.
constexpr uint32_t FirstVirtReg = 16;

/// Register numbers at or above this encode a spill-slot reference:
/// `SlotBase + N` is frame slot N. Only the register allocator writes
/// these, and only instructions whose acceptsSlotRefs() holds may carry
/// them into emission.
constexpr uint32_t SlotBase = 1u << 30;

/// "No register" sentinel for machine operands.
constexpr uint32_t MNoReg = ~static_cast<uint32_t>(0);

inline bool isPhysReg(uint32_t R) { return R < NumPhysRegs; }
inline bool isVirtReg(uint32_t R) {
  return R >= FirstVirtReg && R < SlotBase;
}
inline bool isSlotRef(uint32_t R) { return R >= SlotBase && R != MNoReg; }
inline uint32_t slotOfRef(uint32_t R) { return R - SlotBase; }
inline uint32_t slotRef(uint32_t Slot) { return SlotBase + Slot; }

/// Printable name of physical register \p R ("rax", ...).
const char *physRegName(uint32_t R);

/// Runtime helpers compiled code calls into (codegen/NativeEngine.cpp
/// binds them to addresses).
enum class MHelper : uint8_t {
  None,
  NewArray, ///< dest = rt_new_array(ctx, len)
  Div32,    ///< dest = rt_div32(ctx, a, b); Java semantics, may trap
  Rem32,
  Div64,
  Rem64,
  D2I,  ///< dest = rt_d2i(ctx, bits); saturating, zero-extended result
  FCmp, ///< dest = rt_fcmp(ctx, abits, bbits, pred)
  Trap, ///< rt_trap(ctx, kind); never returns
};

/// Printable name of \p H ("new_array", ...).
const char *helperName(MHelper H);

/// Machine opcodes. Binary arithmetic is two-address (`dst op= src`), so
/// the destination is both a use and a def; the lowering materializes the
/// extra moves x86 needs.
enum class MOp : uint8_t {
  MovImm, ///< dst = Imm (64-bit immediate)
  MovRR,  ///< dst = src (full 64-bit move)
  Mov32,  ///< dst = zext32(src) (movl: write to a 32-bit register)

  // Two-address integer ALU; Width selects the 32- or 64-bit form (the
  // 32-bit form implicitly zero-extends, exactly the x86_64 TargetInfo
  // model the interpreter's Machine mode reproduces).
  Add, ///< dst += src
  Sub, ///< dst -= src
  IMul,
  And,
  Or,
  Xor,
  Shl, ///< dst <<= src (emitter routes the count through CL)
  Shr,
  Sar,
  Neg, ///< dst = -dst
  Not, ///< dst = ~dst

  // Explicit conversions (the instructions sxe exists to eliminate).
  Movsx8,  ///< dst = sext8to64(src)
  Movsx16, ///< dst = sext16to64(src)
  Movsx32, ///< dst = sext32to64(src) (movsxd)
  Movzx8,  ///< dst = src & 0xFF
  Movzx16, ///< dst = src & 0xFFFF

  CmpSet, ///< dst = (src0 <Pred> src1) ? 1 : 0; Width picks cmpl/cmpq

  // Floating point through the xmm0/xmm1 scratch pair (no XMM allocation
  // in the baseline allocator; doubles travel in GPRs as bit patterns).
  FAdd, ///< dst = fp(src0) + fp(src1)
  FSub,
  FMul,
  FDiv,
  FNeg,     ///< dst = -fp(src0)
  CvtSi2Sd, ///< dst = double(int64(src0))

  LoadParam, ///< dst = incoming argument #Imm

  // Inline array access through the context's descriptor table, with the
  // interpreter's null, bounds and wild-address checks. Not calls: they
  // clobber only the RAX/RCX/RDX scratches. Imm is the element type.
  ArrLen,   ///< dst = length(src0)
  ArrLoad,  ///< dst = src0[src1], masked to the element type
  ArrStore, ///< src0[src1] = src2, masked to the element type

  // Calls.
  CallFn,     ///< [dst =] module function #Callee(src0, src1, ...)
  CallHelper, ///< [dst =] Helper(ctx, src0, ...); Imm carries the payload
              ///< (trap kind or compare predicate)

  // Control flow (must terminate their block).
  TestJnz, ///< if (src0 != 0) goto Succs[0] else Succs[1]
  JmpB,    ///< goto Succs[0]
  RetR,    ///< return src0 (or 0 when no source)

  // Register-allocator output.
  SpillStore, ///< frame slot #Imm = src0
  SpillLoad,  ///< dst = frame slot #Imm
};

/// Printable mnemonic of \p Op.
const char *mopName(MOp Op);

class MBlock;

/// One machine instruction.
struct MInst {
  MOp Op;
  Width W = Width::W64;      ///< 32/64-bit form of ALU ops and CmpSet.
  CmpPred Pred = CmpPred::EQ; ///< CmpSet predicate.
  MHelper Helper = MHelper::None;
  uint32_t Def = MNoReg;
  /// Use operands. For two-address ALU ops Uses[0] is the destination
  /// register read-modify-written (and equals Def).
  std::vector<uint32_t> Uses;
  int64_t Imm = 0;      ///< Immediate / slot index / helper payload.
  uint32_t Callee = 0;  ///< CallFn: module function index.
  MBlock *Succs[2] = {nullptr, nullptr};
  /// Linear position assigned by LiveIntervals::number(); even numbers,
  /// so spill code can conceptually sit between positions.
  uint32_t Pos = 0;

  explicit MInst(MOp Op) : Op(Op) {}

  bool isCall() const { return Op == MOp::CallFn || Op == MOp::CallHelper; }
  /// Operands may stay spill-slot references after allocation: the
  /// emitter stages them from the frame itself. ArrStore has three
  /// operands, one more than the spill rewriter has scratches.
  bool acceptsSlotRefs() const {
    return isCall() || Op == MOp::ArrLen || Op == MOp::ArrLoad ||
           Op == MOp::ArrStore;
  }
  bool isTerminator() const {
    return Op == MOp::TestJnz || Op == MOp::JmpB || Op == MOp::RetR ||
           (Op == MOp::CallHelper && Helper == MHelper::Trap);
  }
  unsigned numSuccessors() const {
    if (Op == MOp::TestJnz)
      return 2;
    if (Op == MOp::JmpB)
      return 1;
    return 0;
  }
};

/// One machine basic block: straight-line MInsts ending in a terminator.
class MBlock {
public:
  MBlock(uint32_t Id, std::string Name) : Id(Id), Name(std::move(Name)) {}

  uint32_t id() const { return Id; }
  const std::string &name() const { return Name; }

  std::vector<MInst> Insts;

  /// Dynamic step cost charged against the interpreter-equivalent fuel
  /// budget when this block executes: the number of source IR
  /// instructions it lowers (the emitter decrements the context's fuel by
  /// this amount at the block head).
  uint32_t FuelCost = 0;

private:
  uint32_t Id;
  std::string Name;
};

/// One lowered function.
class MFunction {
public:
  MFunction(const Function *Source, uint32_t Index)
      : Source(Source), Name(Source->name()), Index(Index) {}

  /// The lowered IR function. Valid only while its Module lives: a
  /// NativeModule outlives the Module it was compiled from, so nothing
  /// reachable from NativeModule::run may dereference it.
  const Function *source() const { return Source; }
  /// Copied at lowering, so it stays valid after the IR is freed.
  const std::string &name() const { return Name; }
  /// Position of this function in the module's function table (the
  /// indirect-call index).
  uint32_t index() const { return Index; }

  std::vector<std::unique_ptr<MBlock>> Blocks;

  /// First machine vreg number not in use; lowering temps come from here.
  uint32_t NextVirtReg = FirstVirtReg;

  uint32_t newVirtReg() { return NextVirtReg++; }

  /// Number of incoming parameters (vregs FirstVirtReg..FirstVirtReg+N-1).
  uint32_t NumParams = 0;

  /// Spill slots assigned by the register allocator.
  uint32_t NumSpillSlots = 0;

  /// Largest argument count of any call in the body (sizes the outgoing
  /// argument area).
  uint32_t MaxCallArgs = 0;

  MBlock *createBlock(const std::string &Name) {
    Blocks.push_back(
        std::make_unique<MBlock>(static_cast<uint32_t>(Blocks.size()), Name));
    return Blocks.back().get();
  }

  size_t countInsts() const {
    size_t N = 0;
    for (const auto &B : Blocks)
      N += B->Insts.size();
    return N;
  }

private:
  const Function *Source;
  std::string Name;
  uint32_t Index;
};

/// A lowered module: one MFunction per IR function, in module order (the
/// function-table index space).
struct MModule {
  std::vector<std::unique_ptr<MFunction>> Functions;

  MFunction *find(const std::string &Name) const {
    for (const auto &F : Functions)
      if (F->name() == Name)
        return F.get();
    return nullptr;
  }
};

/// Renders \p MF as text (for tests and --dump-mir debugging).
std::string printMachineFunction(const MFunction &MF);

/// Renders every function of \p MM.
std::string printMachineModule(const MModule &MM);

} // namespace sxe

#endif // SXE_CODEGEN_MACHINEIR_H
