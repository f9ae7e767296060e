//===- sxe/Insertion.cpp - Sign extension insertion (phase 3-1) ---------------===//

#include "sxe/Insertion.h"

#include "analysis/AnalysisCache.h"
#include "sxe/ExtensionFacts.h"

#include <vector>

using namespace sxe;

namespace {

Instruction *makeExtend(Function &F, CanonicalExt Ext, Reg R) {
  Instruction *Conv = F.newInstruction(conversionOpcode(Ext.Kind, Ext.Bits));
  Conv->setDest(R);
  Conv->addOperand(R);
  return Conv;
}

/// "Obviously extended": the nearest in-block definition of \p R before
/// \p Use is a canonicalizing conversion of the right kind or a
/// structurally extended definition.
bool obviouslyExtended(const Function &F, const TargetInfo &Target,
                       BasicBlock &BB, const Instruction *Use, Reg R,
                       CanonicalExt Ext) {
  const Instruction *LastDef = nullptr;
  for (const Instruction &I : BB) {
    if (&I == Use)
      break;
    if (I.hasDest() && I.dest() == R)
      LastDef = &I;
  }
  if (!LastDef)
    return false;
  // A same-kind conversion of at least the canonical width re-established
  // canonical form (a sign extension does not make a char canonical, nor
  // a zero extension an int).
  if (LastDef->isConversion() && LastDef->operand(0) == R &&
      extensionKind(LastDef->opcode()) == Ext.Kind &&
      extensionBits(LastDef->opcode()) >= Ext.Bits)
    return true;
  if (LastDef->isDummyExtend())
    return LastDef->operand(0) == R && Ext.Kind == ExtKind::Sign &&
           Ext.Bits == 32;
  return defKnownExtendedStructural(F, *LastDef, Target, Ext.Kind,
                                    Ext.Bits);
}

/// Collects (use, register) pairs for every requiring operand.
std::vector<std::pair<Instruction *, Reg>>
collectRequiringUses(Function &F, const TargetInfo &Target) {
  std::vector<std::pair<Instruction *, Reg>> Uses;
  for (const auto &BB : F.blocks()) {
    for (Instruction &I : *BB) {
      std::vector<Reg> Done;
      for (unsigned Index = 0; Index < I.numOperands(); ++Index) {
        if (!requiresExtendedOperand(F, I, Index, Target))
          continue;
        Reg R = I.operand(Index);
        bool Seen = false;
        for (Reg D : Done)
          Seen |= D == R;
        if (!Seen) {
          Done.push_back(R);
          Uses.push_back({&I, R});
        }
      }
    }
  }
  return Uses;
}

} // namespace

unsigned sxe::runSimpleInsertion(AnalysisCache &A,
                                 std::vector<Instruction *> *Inserted) {
  // "To balance compilation time and effectiveness, we apply this
  // insertion only to those methods which include a loop."
  if (!A.loops().hasLoops())
    return 0;

  Function &F = A.function();
  const TargetInfo &Target = A.target();
  unsigned Count = 0;
  for (const auto &[Use, R] : collectRequiringUses(F, Target)) {
    CanonicalExt CE = canonicalRegExt(F, R);
    if (obviouslyExtended(F, Target, *Use->parent(), Use, R, CE))
      continue;
    Instruction *Ext =
        Use->parent()->insertBefore(Use, makeExtend(F, CE, R));
    if (Inserted)
      Inserted->push_back(Ext);
    ++Count;
  }
  return Count;
}

unsigned sxe::runPDEInsertion(AnalysisCache &A,
                              std::vector<Instruction *> *Inserted) {
  // Sinking variant: only place an extension before a requiring use when
  // every reaching definition of the register is itself an extension of
  // that register — i.e. the extension is fully available and the insert
  // merely moves it forward without lengthening any path. All chain
  // queries happen in the planning loop, before any insertion mutates the
  // function, so a cached snapshot is safe to use.
  Function &F = A.function();
  const TargetInfo &Target = A.target();
  const UseDefChains &Chains = A.chains();

  std::vector<std::pair<Instruction *, Reg>> Planned;
  for (const auto &[Use, R] : collectRequiringUses(F, Target)) {
    CanonicalExt CE = canonicalRegExt(F, R);
    if (obviouslyExtended(F, Target, *Use->parent(), Use, R, CE))
      continue;
    // Find the operand index again to query the chains (first match is
    // fine: same register, same reaching definitions).
    unsigned OpIndex = ~0u;
    for (unsigned Index = 0; Index < Use->numOperands(); ++Index)
      if (Use->operand(Index) == R &&
          requiresExtendedOperand(F, *Use, Index, Target)) {
        OpIndex = Index;
        break;
      }
    if (OpIndex == ~0u)
      continue;
    const auto &Defs = Chains.defsOf(Use, OpIndex);
    if (Defs.empty())
      continue;
    bool AllExtends = true;
    for (const Instruction *Def : Defs) {
      if (!Def || !Def->isConversion() || Def->dest() != R ||
          extensionKind(Def->opcode()) != CE.Kind ||
          extensionBits(Def->opcode()) < CE.Bits) {
        AllExtends = false;
        break;
      }
    }
    if (AllExtends)
      Planned.push_back({Use, R});
  }
  unsigned Count = 0;
  for (const auto &[Use, R] : Planned) {
    Instruction *Ext = Use->parent()->insertBefore(
        Use, makeExtend(F, canonicalRegExt(F, R), R));
    if (Inserted)
      Inserted->push_back(Ext);
    ++Count;
  }
  return Count;
}

unsigned sxe::insertDummyExtends(Function &F) {
  unsigned Inserted = 0;
  for (const auto &BB : F.blocks()) {
    std::vector<Instruction *> Accesses;
    for (Instruction &I : *BB) {
      if (I.opcode() != Opcode::ArrayLoad && I.opcode() != Opcode::ArrayStore)
        continue;
      Reg Index = I.operand(1);
      // "unless an array index is overwritten immediately, as in i=a[i]".
      if (I.hasDest() && I.dest() == Index)
        continue;
      // Only int indices benefit; narrower index registers would need a
      // width-correct guarantee the access does not give.
      if (canonicalRegBits(F, Index) != 32)
        continue;
      Accesses.push_back(&I);
    }
    for (Instruction *Access : Accesses) {
      Instruction *Dummy = F.newInstruction(Opcode::JustExtended);
      Reg Index = Access->operand(1);
      Dummy->setDest(Index);
      Dummy->addOperand(Index);
      Dummy->setIntValue(0); // Length bound unknown here (0 = configured max).
      BB->insertAfter(Access, Dummy);
      ++Inserted;
    }
  }
  return Inserted;
}
