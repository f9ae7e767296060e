//===- fuzz/Reducer.cpp - Greedy failing-module reducer ---------------------===//

#include "fuzz/Reducer.h"

#include "ir/Cloner.h"
#include "ir/Verifier.h"

#include <algorithm>
#include <vector>

using namespace sxe;

namespace {

/// Upper bound on full transformation rounds.
constexpr unsigned MaxRounds = 32;
/// The function that must survive reduction.
constexpr const char *EntryFunction = "main";

size_t countModuleInstructions(const Module &M) {
  size_t Count = 0;
  for (const auto &F : M.functions())
    Count += F->countInstructions();
  return Count;
}

/// Returns the \p Pos-th instruction of function \p FuncIdx in layout
/// order, counting only non-terminators when \p SkipTerminators, or null
/// when out of range. Candidates are clones, so sites are addressed by
/// stable (function, position) coordinates instead of pointers.
Instruction *instructionAt(Module &M, size_t FuncIdx, size_t Pos,
                           bool SkipTerminators) {
  if (FuncIdx >= M.functions().size())
    return nullptr;
  Function &F = *M.functions()[FuncIdx];
  size_t Index = 0;
  for (const auto &BB : F.blocks()) {
    for (Instruction &I : *BB) {
      if (SkipTerminators && I.isTerminator())
        continue;
      if (Index == Pos)
        return &I;
      ++Index;
    }
  }
  return nullptr;
}

size_t countInstructions(const Module &M, size_t FuncIdx,
                         bool SkipTerminators) {
  if (FuncIdx >= M.functions().size())
    return 0;
  size_t Count = 0;
  for (const auto &BB : M.functions()[FuncIdx]->blocks())
    for (Instruction &I : *BB) {
      if (SkipTerminators && I.isTerminator())
        continue;
      ++Count;
    }
  return Count;
}

/// Deletes every block unreachable from the entry: first their
/// instructions (dropping all successor references), then the blocks.
void removeUnreachableBlocks(Function &F) {
  if (F.numBlocks() == 0)
    return;
  std::vector<const BasicBlock *> Work = {F.entryBlock()};
  std::vector<const BasicBlock *> Reachable;
  auto seen = [&](const BasicBlock *BB) {
    return std::find(Reachable.begin(), Reachable.end(), BB) !=
           Reachable.end();
  };
  while (!Work.empty()) {
    const BasicBlock *BB = Work.back();
    Work.pop_back();
    if (seen(BB))
      continue;
    Reachable.push_back(BB);
    if (const Instruction *Term = BB->terminator())
      for (unsigned Index = 0; Index < Term->numSuccessors(); ++Index)
        Work.push_back(Term->successor(Index));
  }
  if (Reachable.size() == F.numBlocks())
    return;

  std::vector<BasicBlock *> Dead;
  for (const auto &BB : F.blocks())
    if (!seen(BB.get()))
      Dead.push_back(BB.get());
  for (BasicBlock *BB : Dead)
    while (!BB->empty())
      BB->erase(&BB->front());
  for (BasicBlock *BB : Dead)
    F.eraseBlock(BB);
}

/// Drops functions (other than the entry) that no remaining call
/// references, to fixpoint.
void dropUncalledFunctions(Module &M) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &F : M.functions()) {
      if (F->name() == EntryFunction)
        continue;
      bool Called = false;
      for (const auto &Caller : M.functions())
        for (const auto &BB : Caller->blocks())
          for (Instruction &I : *BB)
            if (I.opcode() == Opcode::Call && I.callee() == F.get())
              Called = true;
      if (!Called) {
        M.eraseFunction(F.get());
        Changed = true;
        break; // The iterator is invalid; rescan.
      }
    }
  }
}

class GreedyReducer {
public:
  GreedyReducer(const Module &Failing, const ReducePredicate &Pred)
      : Pred(Pred), Best(cloneModule(Failing)) {
    Stats.OriginalInstructions = countModuleInstructions(Failing);
  }

  std::unique_ptr<Module> run() {
    for (Stats.Rounds = 0; Stats.Rounds < MaxRounds; ++Stats.Rounds) {
      bool Progress = false;
      Progress |= removeInstructionChunks();
      Progress |= collapseBranches();
      Progress |= threadJumps();
      Progress |= narrowConstants();
      if (!Progress)
        break;
    }
    Stats.ReducedInstructions = countModuleInstructions(*Best);
    return std::move(Best);
  }

  ReductionStats stats() const { return Stats; }

private:
  /// Cleans a mutated candidate (unreachable blocks, dead helpers), then
  /// verifies and applies the predicate; on success it becomes Best.
  bool tryAccept(std::unique_ptr<Module> Candidate) {
    ++Stats.CandidatesTried;
    for (const auto &F : Candidate->functions())
      removeUnreachableBlocks(*F);
    dropUncalledFunctions(*Candidate);
    std::vector<std::string> Problems;
    if (!verifyModule(*Candidate, Problems))
      return false;
    if (!Pred(*Candidate))
      return false;
    Best = std::move(Candidate);
    ++Stats.CandidatesAccepted;
    return true;
  }

  /// Delta-debugging-style removal: runs of non-terminator instructions,
  /// halving the run length down to single instructions.
  bool removeInstructionChunks() {
    bool Progress = false;
    for (size_t FuncIdx = 0; FuncIdx < Best->functions().size(); ++FuncIdx) {
      size_t Count = countInstructions(*Best, FuncIdx, true);
      size_t Chunk = 1;
      while (Chunk * 2 <= std::max<size_t>(Count / 2, 1))
        Chunk *= 2;
      for (; Chunk >= 1; Chunk /= 2) {
        size_t Pos = 0;
        while (Pos < countInstructions(*Best, FuncIdx, true)) {
          auto Candidate = cloneModule(*Best);
          // Erase back to front so positions stay valid during the run.
          size_t End = std::min(Pos + Chunk,
                                countInstructions(*Candidate, FuncIdx, true));
          bool Removed = false;
          for (size_t Index = End; Index > Pos; --Index) {
            Instruction *I =
                instructionAt(*Candidate, FuncIdx, Index - 1, true);
            if (!I)
              continue;
            I->parent()->erase(I);
            Removed = true;
          }
          if (Removed && tryAccept(std::move(Candidate)))
            Progress = true; // Retry the same position at the new layout.
          else
            Pos += Chunk;
        }
        if (Chunk == 1)
          break;
      }
    }
    return Progress;
  }

  /// Replaces conditional branches by unconditional jumps to either
  /// successor; the unreachable side is deleted by candidate cleanup.
  bool collapseBranches() {
    bool Progress = false;
    for (size_t FuncIdx = 0; FuncIdx < Best->functions().size(); ++FuncIdx) {
      size_t Pos = 0;
      while (true) {
        Instruction *I = instructionAt(*Best, FuncIdx, Pos, false);
        if (!I)
          break;
        if (I->opcode() != Opcode::Br) {
          ++Pos;
          continue;
        }
        bool Collapsed = false;
        for (unsigned Keep = 0; Keep < 2 && !Collapsed; ++Keep) {
          auto Candidate = cloneModule(*Best);
          Instruction *CandBr =
              instructionAt(*Candidate, FuncIdx, Pos, false);
          if (!CandBr || CandBr->opcode() != Opcode::Br)
            break;
          BasicBlock *BB = CandBr->parent();
          BasicBlock *Target = CandBr->successor(Keep);
          Function *F = Candidate->functions()[FuncIdx].get();
          BB->erase(CandBr);
          Instruction *Jump = F->newInstruction(Opcode::Jmp);
          Jump->setSuccessor(0, Target);
          BB->append(Jump);
          if (tryAccept(std::move(Candidate))) {
            Progress = true;
            Collapsed = true; // The Br is gone; Pos now addresses the Jmp.
          }
        }
        if (!Collapsed)
          ++Pos;
      }
    }
    return Progress;
  }

  /// Threads control flow around jmp-only blocks: every edge into such a
  /// block is redirected to its target, the block goes unreachable, and
  /// candidate cleanup deletes it. Without this, loops whose bodies were
  /// fully removed survive as chains of trivial blocks whose jmps keep
  /// inflating the instruction count.
  bool threadJumps() {
    bool Progress = false;
    for (size_t FuncIdx = 0; FuncIdx < Best->functions().size(); ++FuncIdx) {
      size_t BlockIdx = 0;
      while (true) {
        Function &F = *Best->functions()[FuncIdx];
        if (BlockIdx >= F.numBlocks())
          break;
        BasicBlock *BB = F.blocks()[BlockIdx].get();
        const Instruction *Term = BB->terminator();
        bool JmpOnly = BB != F.entryBlock() && Term &&
                       Term->opcode() == Opcode::Jmp &&
                       &BB->front() == Term && Term->successor(0) != BB;
        if (!JmpOnly) {
          ++BlockIdx;
          continue;
        }
        auto Candidate = cloneModule(*Best);
        Function &CF = *Candidate->functions()[FuncIdx];
        BasicBlock *CB = CF.blocks()[BlockIdx].get();
        BasicBlock *Target = CB->terminator()->successor(0);
        for (const auto &Other : CF.blocks()) {
          if (Other.get() == CB)
            continue;
          Instruction *OtherTerm = Other->terminator();
          if (!OtherTerm)
            continue;
          for (unsigned S = 0; S < OtherTerm->numSuccessors(); ++S)
            if (OtherTerm->successor(S) == CB)
              OtherTerm->setSuccessor(S, Target);
        }
        if (tryAccept(std::move(Candidate)))
          Progress = true; // Block deleted; the index names the next one.
        else
          ++BlockIdx;
      }
    }
    return Progress;
  }

  /// Narrows integer constants toward zero: 0, 1, then half the value.
  bool narrowConstants() {
    bool Progress = false;
    for (size_t FuncIdx = 0; FuncIdx < Best->functions().size(); ++FuncIdx) {
      size_t Pos = 0;
      while (true) {
        Instruction *I = instructionAt(*Best, FuncIdx, Pos, false);
        if (!I)
          break;
        if (I->opcode() == Opcode::ConstInt && I->intValue() != 0 &&
            I->intValue() != 1) {
          const int64_t Candidates[] = {0, 1, I->intValue() / 2};
          for (int64_t Value : Candidates) {
            if (Value == I->intValue())
              continue;
            auto Candidate = cloneModule(*Best);
            Instruction *CandConst =
                instructionAt(*Candidate, FuncIdx, Pos, false);
            if (!CandConst || CandConst->opcode() != Opcode::ConstInt)
              break;
            CandConst->setIntValue(Value);
            if (tryAccept(std::move(Candidate))) {
              Progress = true;
              break;
            }
          }
        }
        ++Pos;
      }
    }
    return Progress;
  }

  const ReducePredicate &Pred;
  ReductionStats Stats;
  std::unique_ptr<Module> Best;
};

} // namespace

std::unique_ptr<Module> sxe::reduceModule(const Module &Failing,
                                          const ReducePredicate &StillInteresting,
                                          ReductionStats *Stats) {
  GreedyReducer R(Failing, StillInteresting);
  std::unique_ptr<Module> Result = R.run();
  if (Stats)
    *Stats = R.stats();
  return Result;
}
