//===- ir/Instruction.h - IR instruction -------------------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single non-SSA IR instruction: an opcode, a destination virtual
/// register, operand registers, and opcode-specific payload. The paper's
/// elimination algorithm tags each instruction with three traversal flags
/// (USE, DEF, ARRAY); they live directly on the instruction as in the paper.
///
/// Instructions are allocated from their Function's arena and linked into
/// their block through intrusive prev/next pointers, so insertion and
/// removal are O(1) and pointers stay stable for the UD/DU chains. Every
/// value- or shape-mutating setter notifies the owning Function (once the
/// instruction is attached to a block), which advances the IR / CFG epoch
/// counters that validate cached analyses and the dense numbering.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_IR_INSTRUCTION_H
#define SXE_IR_INSTRUCTION_H

#include "ir/Opcode.h"
#include "ir/Type.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace sxe {

class BasicBlock;
class Function;

/// Virtual register number. Registers are function-local and 64 bits wide.
using Reg = uint32_t;

/// Sentinel for "no register" (instructions without a destination).
constexpr Reg NoReg = ~static_cast<Reg>(0);

/// One instruction of the sxe IR.
///
/// The IR is deliberately *not* SSA: a register may have many definitions,
/// and the optimizer reasons about them through UD/DU chains, exactly like
/// the JIT intermediate language the paper describes.
class Instruction {
public:
  /// Dense-number sentinel: not yet assigned by Function::numberInstructions
  /// (or inserted after the numbering was taken).
  static constexpr uint32_t Unnumbered = ~static_cast<uint32_t>(0);

  explicit Instruction(Opcode Op) : Op(Op) {}

  Opcode opcode() const { return Op; }
  const OpcodeInfo &info() const { return opcodeInfo(Op); }

  /// Semantic width of an integer operation (meaningful when
  /// info().HasWidth).
  Width width() const { return W; }
  void setWidth(Width NewW);
  bool isW32() const { return W == Width::W32; }

  /// Element type of an array operation, or value type of a constant.
  Type type() const { return Ty; }
  void setType(Type NewTy);

  CmpPred pred() const { return Pred; }
  void setPred(CmpPred NewPred);

  Reg dest() const { return Dest; }
  void setDest(Reg R);
  bool hasDest() const { return Dest != NoReg; }

  unsigned numOperands() const { return Operands.size(); }
  Reg operand(unsigned Index) const {
    assert(Index < Operands.size() && "operand index out of range");
    return Operands[Index];
  }
  void setOperand(unsigned Index, Reg R);
  void addOperand(Reg R);
  const std::vector<Reg> &operands() const { return Operands; }

  int64_t intValue() const { return IntValue; }
  void setIntValue(int64_t V);

  double floatValue() const { return FloatValue; }
  void setFloatValue(double V);

  bool isTerminator() const { return info().IsTerminator; }

  unsigned numSuccessors() const {
    if (Op == Opcode::Br)
      return 2;
    if (Op == Opcode::Jmp)
      return 1;
    return 0;
  }
  BasicBlock *successor(unsigned Index) const {
    assert(Index < numSuccessors() && "successor index out of range");
    return Succs[Index];
  }
  void setSuccessor(unsigned Index, BasicBlock *BB);

  Function *callee() const { return Callee; }
  void setCallee(Function *F);

  BasicBlock *parent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  /// Intrusive block-list links; null at the block boundaries (and while
  /// detached).
  Instruction *prev() const { return PrevInst; }
  Instruction *next() const { return NextInst; }

  /// Unique id within the owning function, assigned at insertion; stable
  /// across mutations, used for deterministic ordering and diagnostics.
  uint32_t id() const { return Id; }
  void setId(uint32_t NewId) { Id = NewId; }

  /// Dense layout number from the last Function::numberInstructions()
  /// call, or Unnumbered for instructions inserted since. Analyses index
  /// flat tables with it; lookups must treat out-of-range / Unnumbered as
  /// a miss.
  uint32_t num() const { return Num; }

  /// Rewrites this instruction in place into `dest = const Value`,
  /// keeping its identity (parent block, id, destination register). Used
  /// by constant folding.
  void morphToConstInt(int64_t Value, Type ConstTy);

  /// Rewrites this instruction in place into `dest = copy src0`, keeping
  /// its identity. Used when an extension with a distinct destination
  /// register is proven unnecessary: the value move must survive.
  void morphToCopy();

  /// Returns true for Sext8/Sext16/Sext32 — the explicit extend()
  /// instructions the optimization eliminates.
  bool isSext() const { return isSextOpcode(Op); }

  /// Returns true for Zext8/Zext16/Zext32/Trunc32.
  bool isZext() const { return isZextOpcode(Op); }

  /// Returns true for any explicit conversion (sext, zext, or trunc) —
  /// the full candidate set of the generalized elimination.
  bool isConversion() const { return isConversionOpcode(Op); }

  /// Returns true for the dummy just_extended marker.
  bool isDummyExtend() const { return Op == Opcode::JustExtended; }

  /// Returns true if this instruction reads the full 64-bit value of array
  /// index operand \p Index as part of an effective address computation
  /// (ArrayLoad operand 1 or ArrayStore operand 1).
  bool isArrayIndexOperand(unsigned Index) const {
    return (Op == Opcode::ArrayLoad || Op == Opcode::ArrayStore) &&
           Index == 1;
  }

private:
  friend class BasicBlock;
  friend class Function;

  /// Epoch hooks, defined in Instruction.cpp where Function is complete.
  void noteIRMutation();
  void noteCFGMutation();

  Opcode Op;
  Width W = Width::W64;
  Type Ty = Type::Void;
  CmpPred Pred = CmpPred::EQ;
  Reg Dest = NoReg;
  uint32_t Id = 0;
  uint32_t Num = Unnumbered;
  std::vector<Reg> Operands;
  int64_t IntValue = 0;
  double FloatValue = 0.0;
  BasicBlock *Succs[2] = {nullptr, nullptr};
  Function *Callee = nullptr;
  BasicBlock *Parent = nullptr;
  Instruction *PrevInst = nullptr;
  Instruction *NextInst = nullptr;
};

} // namespace sxe

#endif // SXE_IR_INSTRUCTION_H
