//===- pm/Passes.cpp - Pass wrappers for the pipeline phases ------------------===//

#include "pm/Passes.h"

#include "obs/Remarks.h"
#include "opt/GeneralOpts.h"
#include "sxe/Elimination.h"
#include "sxe/FirstAlgorithm.h"
#include "sxe/Insertion.h"
#include "sxe/OrderDetermination.h"

#include <unordered_set>

using namespace sxe;

namespace {

/// Emits the per-function summary remark the generation-side passes
/// produce: "\p Pass made \p Decision happen to \p Count extensions in
/// \p F". Skipped when the pass did nothing in this function, so remark
/// streams stay dense and count-sums still match the pass counters.
void addSummaryRemark(PassContext &Ctx, const char *Pass, const Function &F,
                      RemarkDecision Decision, uint64_t Count) {
  RemarkCollector *Remarks = Ctx.remarks();
  if (!Remarks || Count == 0)
    return;
  Remark R;
  R.Pass = Pass;
  R.Function = F.name();
  R.Decision = Decision;
  R.Count = Count;
  Remarks->add(std::move(R));
}

class Conversion64Pass : public Pass {
public:
  explicit Conversion64Pass(GenPolicy Policy) : Policy(Policy) {}
  const char *name() const override { return "conversion64"; }
  Group group() const override { return Group::Conversion; }
  bool mayAddExtensions() const override { return true; }
  void run(Function &F, PassContext &Ctx) override {
    unsigned Generated = runConversion64(F, *Ctx.config().Target, Policy);
    SXE_PASS_STAT(Ctx, sext_generated) += Generated;
    addSummaryRemark(Ctx, name(), F, RemarkDecision::Generated, Generated);
  }

private:
  GenPolicy Policy;
};

class GeneralOptsPass : public Pass {
public:
  const char *name() const override { return "general-opts"; }
  Group group() const override { return Group::GeneralOpts; }
  void run(Function &F, PassContext &Ctx) override {
    SXE_PASS_STAT(Ctx, rewrites) += runGeneralOpts(Ctx.cache(F));
  }
};

class DummyInsertionPass : public Pass {
public:
  const char *name() const override { return "dummy-insertion"; }
  void run(Function &F, PassContext &Ctx) override {
    SXE_PASS_STAT(Ctx, dummy_added) += insertDummyExtends(F);
  }
};

class InsertionPass : public Pass {
public:
  explicit InsertionPass(bool UsePDE) : UsePDE(UsePDE) {}
  const char *name() const override { return "insertion"; }
  bool mayAddExtensions() const override { return true; }
  void run(Function &F, PassContext &Ctx) override {
    std::vector<Instruction *> &Inserted = Ctx.inserted(F);
    unsigned Placed = 0;
    if (UsePDE) {
      SXE_PASS_STAT(Ctx, pde_variant) = 1;
      Placed = runPDEInsertion(Ctx.cache(F), &Inserted);
    } else {
      SXE_PASS_STAT(Ctx, pde_variant) = 0;
      Placed = runSimpleInsertion(Ctx.cache(F), &Inserted);
    }
    SXE_PASS_STAT(Ctx, sext_inserted) += Placed;
    addSummaryRemark(Ctx, name(), F, RemarkDecision::Inserted, Placed);
  }

private:
  bool UsePDE;
};

class OrderDeterminationPass : public Pass {
public:
  explicit OrderDeterminationPass(bool ByFrequency)
      : ByFrequency(ByFrequency) {}
  const char *name() const override { return "order-determination"; }
  void run(Function &F, PassContext &Ctx) override {
    std::vector<Instruction *> &Order = Ctx.order(F);
    if (ByFrequency) {
      SXE_PASS_STAT(Ctx, by_frequency) = 1;
      const std::vector<Instruction *> &Inserted = Ctx.inserted(F);
      std::unordered_set<Instruction *> InsertedSet(Inserted.begin(),
                                                    Inserted.end());
      Order = extensionsByFrequency(Ctx.cache(F), &InsertedSet);
    } else {
      SXE_PASS_STAT(Ctx, by_frequency) = 0;
      Order = extensionsInReverseDFS(Ctx.cache(F));
    }
    SXE_PASS_STAT(Ctx, extensions_ordered) += Order.size();
  }

private:
  bool ByFrequency;
};

class EliminationPass : public Pass {
public:
  const char *name() const override { return "elimination"; }
  void run(Function &F, PassContext &Ctx) override {
    const PipelineConfig &Config = Ctx.config();
    AnalysisCache &A = Ctx.cache(F);
    // A preceding order-determination pass normally decides the order;
    // standalone stacks fall back to the order-off default (reverse DFS).
    std::vector<Instruction *> Order =
        Ctx.hasOrder(F) ? Ctx.order(F) : extensionsInReverseDFS(A);
    EliminationOptions Options;
    Options.EnableArrayTheorems = Config.EnableArrayTheorems;
    Options.EnableInductiveArith = Config.EnableInductiveArith;
    Options.ChainTimer = &Ctx.chainTimer();
    Options.Remarks = Ctx.remarks();
    EliminationStats ES = runElimination(A, Order, Options);
    SXE_PASS_STAT(Ctx, analyzed) += ES.Analyzed;
    SXE_PASS_STAT(Ctx, sext_eliminated) += ES.EliminatedSext;
    SXE_PASS_STAT(Ctx, zext_eliminated) += ES.EliminatedZext;
    SXE_PASS_STAT(Ctx, trunc_eliminated) += ES.EliminatedTrunc;
    SXE_PASS_STAT(Ctx, eliminated_via_uses) += ES.EliminatedViaUses;
    SXE_PASS_STAT(Ctx, eliminated_via_defs) += ES.EliminatedViaDefs;
    SXE_PASS_STAT(Ctx, array_uses_proven) += ES.ArrayUsesProven;
    SXE_PASS_STAT(Ctx, dummy_removed) += ES.DummiesRemoved;
    SXE_PASS_STAT(Ctx, subscript_extended) += ES.SubscriptExtended;
    SXE_PASS_STAT(Ctx, theorem1_fired) += ES.SubscriptTheorem1;
    SXE_PASS_STAT(Ctx, theorem2_fired) += ES.SubscriptTheorem2;
    SXE_PASS_STAT(Ctx, theorem3_fired) += ES.SubscriptTheorem3;
    SXE_PASS_STAT(Ctx, theorem4_fired) += ES.SubscriptTheorem4;
  }
};

class FirstAlgorithmPass : public Pass {
public:
  const char *name() const override { return "first-algorithm"; }
  void run(Function &F, PassContext &Ctx) override {
    SXE_PASS_STAT(Ctx, sext_eliminated) += runFirstAlgorithm(Ctx.cache(F));
  }
};

} // namespace

std::unique_ptr<Pass> sxe::createConversion64Pass(GenPolicy Policy) {
  return std::make_unique<Conversion64Pass>(Policy);
}
std::unique_ptr<Pass> sxe::createGeneralOptsPass() {
  return std::make_unique<GeneralOptsPass>();
}
std::unique_ptr<Pass> sxe::createDummyInsertionPass() {
  return std::make_unique<DummyInsertionPass>();
}
std::unique_ptr<Pass> sxe::createInsertionPass(bool UsePDE) {
  return std::make_unique<InsertionPass>(UsePDE);
}
std::unique_ptr<Pass> sxe::createOrderDeterminationPass(bool ByFrequency) {
  return std::make_unique<OrderDeterminationPass>(ByFrequency);
}
std::unique_ptr<Pass> sxe::createEliminationPass() {
  return std::make_unique<EliminationPass>();
}
std::unique_ptr<Pass> sxe::createFirstAlgorithmPass() {
  return std::make_unique<FirstAlgorithmPass>();
}
