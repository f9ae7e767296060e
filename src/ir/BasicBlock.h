//===- ir/BasicBlock.h - Basic block ----------------------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A basic block: an intrusively linked sequence of instructions ending in
/// a terminator. Instructions are allocated from the owning Function's
/// arena and chained through their prev/next pointers, so insertion and
/// removal are O(1) and instruction pointers are stable across mutations
/// (the UD/DU chains key on them). Instructions are made with
/// Function::newInstruction (or cloneInstruction) and then linked here.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_IR_BASICBLOCK_H
#define SXE_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <string>

namespace sxe {

class Function;

/// A straight-line sequence of instructions with a single terminator.
class BasicBlock {
public:
  /// Forward iterator over the intrusive instruction list.
  template <typename InstT> class InstIterator {
  public:
    InstIterator() = default;
    explicit InstIterator(InstT *I) : I(I) {}
    InstT &operator*() const { return *I; }
    InstT *operator->() const { return I; }
    InstIterator &operator++() {
      I = I->next();
      return *this;
    }
    InstIterator operator++(int) {
      InstIterator Old = *this;
      I = I->next();
      return Old;
    }
    bool operator==(const InstIterator &Other) const { return I == Other.I; }
    bool operator!=(const InstIterator &Other) const { return I != Other.I; }

  private:
    InstT *I = nullptr;
  };

  using iterator = InstIterator<Instruction>;
  using const_iterator = InstIterator<const Instruction>;

  BasicBlock(Function *Parent, unsigned Id, std::string Name)
      : Parent(Parent), Id(Id), Name(std::move(Name)) {}

  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;

  /// Destroys the linked instructions (their memory stays in the arena).
  ~BasicBlock();

  Function *parent() const { return Parent; }
  unsigned id() const { return Id; }
  const std::string &name() const { return Name; }

  /// Dense layout number from the last Function::numberInstructions()
  /// call. Analyses index flat block tables with it.
  uint32_t num() const { return Num; }

  iterator begin() { return iterator(Head); }
  iterator end() { return iterator(); }
  const_iterator begin() const { return const_iterator(Head); }
  const_iterator end() const { return const_iterator(); }

  bool empty() const { return Head == nullptr; }
  size_t size() const { return Count; }

  Instruction &front() {
    assert(Head && "front() on empty block");
    return *Head;
  }
  Instruction &back() {
    assert(Tail && "back() on empty block");
    return *Tail;
  }
  const Instruction &back() const {
    assert(Tail && "back() on empty block");
    return *Tail;
  }

  /// Appends the detached, arena-allocated \p Inst to the end of the block
  /// and returns it.
  Instruction *append(Instruction *Inst);

  /// Inserts detached \p Inst immediately before \p Pos (which must be in
  /// this block) and returns it.
  Instruction *insertBefore(Instruction *Pos, Instruction *Inst);

  /// Inserts detached \p Inst immediately after \p Pos (which must be in
  /// this block) and returns it.
  Instruction *insertAfter(Instruction *Pos, Instruction *Inst);

  /// Unlinks and destroys \p Inst, which must be in this block. The arena
  /// retains the memory until the Function dies.
  void erase(Instruction *Inst);

  /// Returns the terminator, or null if the block is empty or unterminated.
  Instruction *terminator() {
    return Tail && Tail->isTerminator() ? Tail : nullptr;
  }
  const Instruction *terminator() const {
    return Tail && Tail->isTerminator() ? Tail : nullptr;
  }

  /// Returns true if the block ends in a terminator instruction.
  bool isTerminated() const { return Tail && Tail->isTerminator(); }

private:
  friend class Function;

  /// Assigns identity and links \p Inst between \p Before and \p After
  /// (either may be null at the boundaries), bumping the right epoch.
  Instruction *link(Instruction *Inst, Instruction *Before,
                    Instruction *After);

  Function *Parent;
  unsigned Id;
  uint32_t Num = 0;
  std::string Name;
  Instruction *Head = nullptr;
  Instruction *Tail = nullptr;
  size_t Count = 0;
};

} // namespace sxe

#endif // SXE_IR_BASICBLOCK_H
