//===- pm/InstrumentedPipeline.cpp - Figure 5 as a pass stack -----------------===//

#include "pm/InstrumentedPipeline.h"

#include "pm/Passes.h"

using namespace sxe;

void sxe::buildPipelinePasses(PassManager &PM, const PipelineConfig &Config) {
  if (Config.Gen == GenPolicy::BeforeUse) {
    // "Gen use" models extension generation at the code generation phase:
    // the general optimizations run on the extension-free IR first, then
    // the extensions are placed before uses and stay.
    if (Config.GeneralOpts)
      PM.add(createGeneralOptsPass());
    PM.add(createConversion64Pass(GenPolicy::BeforeUse));
  } else {
    PM.add(createConversion64Pass(GenPolicy::AfterDef));
    if (Config.GeneralOpts)
      PM.add(createGeneralOptsPass());
  }

  switch (Config.Engine) {
  case EliminationEngine::None:
    break;
  case EliminationEngine::BackwardFlow:
    PM.add(createFirstAlgorithmPass());
    break;
  case EliminationEngine::UdDu:
    // Dummy markers always accompany the UD/DU engine — they are an
    // analysis device consumed by elimination.
    if (Config.EnableDummies)
      PM.add(createDummyInsertionPass());
    if (Config.EnableInsertion)
      PM.add(createInsertionPass(Config.UsePDEInsertion));
    PM.add(createOrderDeterminationPass(Config.EnableOrder));
    PM.add(createEliminationPass());
    break;
  }
}

InstrumentedPipelineResult
sxe::runInstrumentedPipeline(Module &M, const PipelineConfig &Config,
                             const PassManagerOptions &Options) {
  InstrumentedPipelineResult Result;
  PassManager PM(Options);
  buildPipelinePasses(PM, Config);
  PassContext Ctx(Config, Result.Stats,
                  Options.CollectRemarks ? &Result.Remarks : nullptr,
                  Options.Trace);

  Result.Ok = PM.run(M, Ctx);
  if (!Result.Ok && PM.failure()) {
    Result.FailedPass = PM.failure()->PassName;
    Result.Problems = PM.failure()->Problems;
  }
  Result.Timings = PM.timings();
  Result.Snapshots = PM.snapshots();
  Result.ChainCreationNanos = Ctx.chainTimer().elapsedNanos();
  return Result;
}
