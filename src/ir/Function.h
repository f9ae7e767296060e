//===- ir/Function.h - Function ---------------------------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A function: a list of basic blocks (the first is the entry), a pool of
/// typed virtual registers, and a signature. Parameters occupy registers
/// 0..numParams()-1 and are sign-extended on entry per the calling
/// convention (the ABI extends sub-register integer arguments).
///
/// All IR objects (instructions and blocks) live in a per-function bump
/// arena (support/Arena.h): allocation is a pointer increment and the
/// memory is released wholesale when the function dies. Two monotonic
/// epoch counters validate cached derived state: irEpoch() advances on
/// any value or shape mutation, cfgEpoch() only when the block graph
/// changes. numberInstructions() assigns dense layout numbers to blocks
/// and instructions (cached per irEpoch) so analyses can use flat vectors
/// instead of pointer-keyed hash maps.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_IR_FUNCTION_H
#define SXE_IR_FUNCTION_H

#include "ir/BasicBlock.h"
#include "ir/Type.h"
#include "support/Arena.h"

#include <memory>
#include <string>
#include <vector>

namespace sxe {

class Module;

/// A function of the sxe IR.
class Function {
public:
  /// Blocks are arena-allocated; the deleter only runs the destructor.
  struct BlockDeleter {
    void operator()(BasicBlock *BB) const {
      if (BB)
        BB->~BasicBlock();
    }
  };
  using BlockPtr = std::unique_ptr<BasicBlock, BlockDeleter>;

  /// Dense numbering summary from numberInstructions().
  struct Numbering {
    uint32_t NumBlocks = 0;
    uint32_t NumInsts = 0;
  };

  Function(Module *Parent, std::string Name, Type ReturnType)
      : Parent(Parent), Name(std::move(Name)), ReturnType(ReturnType) {}

  Module *parent() const { return Parent; }
  const std::string &name() const { return Name; }
  Type returnType() const { return ReturnType; }

  /// Declares a fresh virtual register of type \p Ty. \p RegName is used by
  /// the printer when non-empty ("i", "t", ...); names need not be unique.
  Reg newReg(Type Ty, std::string RegName = "");

  /// Declares the next function parameter; parameters must be declared
  /// before any other registers.
  Reg addParam(Type Ty, std::string RegName = "");

  unsigned numRegs() const { return RegTypes.size(); }
  unsigned numParams() const { return NumParams; }

  Type regType(Reg R) const {
    assert(R < RegTypes.size() && "register out of range");
    return RegTypes[R];
  }

  /// Returns the printable name of \p R: the declared name if any,
  /// otherwise "r<N>".
  std::string regName(Reg R) const;

  /// Creates a new basic block appended to the block list.
  BasicBlock *createBlock(std::string BlockName);

  BasicBlock *entryBlock() {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front().get();
  }
  const BasicBlock *entryBlock() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front().get();
  }

  size_t numBlocks() const { return Blocks.size(); }

  /// Blocks in creation (layout) order.
  const std::vector<BlockPtr> &blocks() const { return Blocks; }

  /// Returns the block named \p BlockName, or null.
  BasicBlock *findBlock(const std::string &BlockName);

  /// Unlinks and destroys \p BB. The caller must have removed every
  /// branch to it; the entry block cannot be erased.
  void eraseBlock(BasicBlock *BB);

  /// Allocates a detached instruction in the function arena. It joins a
  /// block through BasicBlock::append / insertBefore / insertAfter.
  Instruction *newInstruction(Opcode Op) {
    return IRArena.create<Instruction>(Op);
  }

  /// Allocates a detached arena copy of \p I (links, parent, and dense
  /// number reset; id copied — insertion reassigns it).
  Instruction *cloneInstruction(const Instruction &I);

  /// Returns the next unique instruction id (used by BasicBlock insertion).
  uint32_t nextInstructionId() { return NextInstId++; }

  /// Raises the id counter so future insertions do not collide with ids
  /// copied verbatim (used by the cloner, which preserves original ids so
  /// profile data keyed by id transfers between clones).
  void reserveInstructionIds(uint32_t Bound) {
    if (Bound > NextInstId)
      NextInstId = Bound;
  }

  /// Counts instructions across all blocks.
  size_t countInstructions() const;

  /// Advances on any IR mutation (operand/dest/width rewrites, insertion,
  /// removal). Cached value-level analyses (UD/DU chains, ranges) and the
  /// dense numbering validate against it.
  uint64_t irEpoch() const { return IREpoch; }

  /// Advances only when the block graph changes (blocks created or
  /// erased, terminators added, removed, morphed, or retargeted). Cached
  /// CFG-derived analyses validate against it.
  uint64_t cfgEpoch() const { return CFGEpoch; }

  void noteIRMutation() { ++IREpoch; }
  void noteCFGMutation() {
    ++IREpoch;
    ++CFGEpoch;
  }

  /// Assigns dense layout numbers (block-major, list order) to every block
  /// and instruction; cached until the next IR mutation. Instructions
  /// inserted after a numbering read Instruction::Unnumbered until the
  /// next call.
  const Numbering &numberInstructions();

  /// The arena backing this function's IR (sizing/diagnostics).
  const Arena &arena() const { return IRArena; }

private:
  // Declared first so every IR object is destroyed before its storage.
  Arena IRArena;
  Module *Parent;
  std::string Name;
  Type ReturnType;
  unsigned NumParams = 0;
  uint32_t NextInstId = 0;
  uint64_t IREpoch = 1;
  uint64_t CFGEpoch = 1;
  uint64_t NumberedEpoch = 0;
  Numbering Numbers;
  std::vector<Type> RegTypes;
  std::vector<std::string> RegNames;
  std::vector<BlockPtr> Blocks;
};

} // namespace sxe

#endif // SXE_IR_FUNCTION_H
