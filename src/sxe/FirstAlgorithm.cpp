//===- sxe/FirstAlgorithm.cpp - Backward-dataflow elimination -----------------===//

#include "sxe/FirstAlgorithm.h"

#include "analysis/AnalysisCache.h"
#include "support/DenseBitset.h"
#include "sxe/ExtensionFacts.h"

#include <vector>

using namespace sxe;

namespace {

/// Backward transfer of one instruction: kill the destination's demand,
/// then demand every operand that must be canonically extended.
void applyTransfer(const Function &F, const TargetInfo &Target,
                   const Instruction &I, DenseBitset &Demand) {
  bool DestDemanded = I.hasDest() && Demand.test(I.dest());
  if (I.hasDest())
    Demand.reset(I.dest());
  // A copy forwards the register bits verbatim, so a demand on the
  // destination's canonical form becomes a demand on the source (the
  // self-copy `r = copy r` would otherwise erase the demand and let the
  // sweep delete a conversion a requiring use below still needs).
  // Arithmetic redefinitions really do kill demand: gen-def plants the
  // recanonicalizing conversion after them, and that conversion is the
  // instruction the demand keeps alive.
  if (DestDemanded && I.opcode() == Opcode::Copy &&
      isSubRegisterIntType(F.regType(I.dest())))
    Demand.set(I.operand(0));
  for (unsigned Index = 0; Index < I.numOperands(); ++Index)
    if (requiresExtendedOperand(F, I, Index, Target))
      Demand.set(I.operand(Index));
}

} // namespace

unsigned sxe::runFirstAlgorithm(AnalysisCache &A) {
  Function &F = A.function();
  const TargetInfo &Target = A.target();
  const CFG &Cfg = A.cfg();
  const auto &RPO = Cfg.reversePostOrder();

  // Indexed by block num(); the cached CFG keeps the numbering current.
  std::vector<DenseBitset> DemandOut(F.numBlocks(), DenseBitset(F.numRegs()));
  std::vector<DenseBitset> DemandIn(F.numBlocks(), DenseBitset(F.numRegs()));

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto It = RPO.rbegin(); It != RPO.rend(); ++It) {
      BasicBlock *BB = *It;
      DenseBitset &Out = DemandOut[BB->num()];
      for (BasicBlock *Succ : Cfg.successors(BB))
        Changed |= Out.unionWith(DemandIn[Succ->num()]);

      DenseBitset In = Out;
      std::vector<const Instruction *> Reversed;
      Reversed.reserve(BB->size());
      for (const Instruction &I : *BB)
        Reversed.push_back(&I);
      for (auto RIt = Reversed.rbegin(); RIt != Reversed.rend(); ++RIt)
        applyTransfer(F, Target, **RIt, In);
      Changed |= DemandIn[BB->num()].unionWith(In);
    }
  }

  // Removal: an `r = convN r` re-establishing r's canonical form whose
  // register is not demanded right after it is unnecessary. Removing such
  // a conversion adds no demand upstream (its out-demand was empty), so a
  // single simultaneous sweep is exact. A conversion of a full-width
  // register (e.g. trunc32 of an i64) is a real narrowing, never a
  // re-canonicalization, and stays out of scope here.
  unsigned Removed = 0;
  for (BasicBlock *BB : RPO) {
    DenseBitset Demand = DemandOut[BB->num()];
    std::vector<Instruction *> Reversed;
    Reversed.reserve(BB->size());
    for (Instruction &I : *BB)
      Reversed.push_back(&I);
    std::vector<Instruction *> ToErase;
    for (auto RIt = Reversed.rbegin(); RIt != Reversed.rend(); ++RIt) {
      Instruction *I = *RIt;
      if (I->isConversion() && I->numOperands() == 1 &&
          I->dest() == I->operand(0) &&
          canonicalRegBits(F, I->dest()) != 0 &&
          I->opcode() == canonicalConversionOpcode(F, I->dest()) &&
          !Demand.test(I->dest())) {
        ToErase.push_back(I);
        // Transfer still applies: the extend kills and demands nothing.
      }
      applyTransfer(F, Target, *I, Demand);
    }
    for (Instruction *I : ToErase) {
      BB->erase(I);
      ++Removed;
    }
  }
  return Removed;
}
