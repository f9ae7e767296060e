//===- opt/LocalOpts.cpp - Local constant folding and copy prop --------------===//

#include "opt/LocalOpts.h"

#include "ir/Semantics.h"

#include <unordered_map>

using namespace sxe;

namespace {

/// True for the operations this folder evaluates. Division traps, and
/// compares reach terminators; folding either moves outputs, so both stay.
bool isFoldable(Opcode Op) {
  return isEvaluable(Op) && Op != Opcode::Div && Op != Opcode::Rem &&
         Op != Opcode::Cmp;
}

} // namespace

unsigned sxe::runLocalOpts(Function &F) {
  unsigned Rewritten = 0;

  for (const auto &BB : F.blocks()) {
    // Block-local lattices, invalidated on redefinition.
    std::unordered_map<Reg, uint64_t> Constants;
    std::unordered_map<Reg, Reg> CopyOf;

    auto invalidate = [&](Reg R) {
      Constants.erase(R);
      CopyOf.erase(R);
      for (auto It = CopyOf.begin(); It != CopyOf.end();) {
        if (It->second == R)
          It = CopyOf.erase(It);
        else
          ++It;
      }
    };

    for (Instruction &I : *BB) {
      // Copy propagation: replace operands by their copy sources.
      for (unsigned Index = 0; Index < I.numOperands(); ++Index) {
        auto It = CopyOf.find(I.operand(Index));
        if (It != CopyOf.end()) {
          I.setOperand(Index, It->second);
          ++Rewritten;
        }
      }

      // Constant folding of pure integer operations with known inputs.
      bool Folded = false;
      if (isFoldable(I.opcode()) && isIntegerType(F.regType(I.dest()))) {
        bool AllConst = true;
        uint64_t Vals[2] = {0, 0};
        for (unsigned Index = 0; Index < I.numOperands(); ++Index) {
          auto It = Constants.find(I.operand(Index));
          if (It == Constants.end()) {
            AllConst = false;
            break;
          }
          Vals[Index] = It->second;
        }
        if (AllConst) {
          uint64_t Result =
              evaluate(I.opcode(), I.width(), I.pred(), Vals[0], Vals[1])
                  .Value;
          // Fold only a result that is a valid register image of the type.
          if (canonical(Result, F.regType(I.dest())) == Result) {
            Type ConstTy =
                F.regType(I.dest()) == Type::I64 ? Type::I64 : Type::I32;
            I.morphToConstInt(static_cast<int64_t>(Result), ConstTy);
            Folded = true;
            ++Rewritten;
          }
        }
      }

      // Update lattices.
      if (!I.hasDest())
        continue;
      Reg Dest = I.dest();
      if (I.opcode() == Opcode::ConstInt) {
        invalidate(Dest);
        Constants[Dest] = static_cast<uint64_t>(I.intValue());
        continue;
      }
      if (!Folded && I.opcode() == Opcode::Copy && Dest != I.operand(0) &&
          isIntegerType(F.regType(Dest)) ==
              isIntegerType(F.regType(I.operand(0)))) {
        Reg Src = I.operand(0);
        invalidate(Dest);
        // Only propagate width-preserving copies: a widening copy's source
        // may be replaced where the full register matters.
        if (F.regType(Dest) == F.regType(Src)) {
          CopyOf[Dest] = Src;
          auto It = Constants.find(Src);
          if (It != Constants.end())
            Constants[Dest] = It->second;
        }
        continue;
      }
      invalidate(Dest);
    }
  }
  return Rewritten;
}
