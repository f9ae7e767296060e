//===- workloads/Runner.cpp - Variant sweep harness ----------------------------===//

#include "workloads/Runner.h"

#include "codegen/NativeEngine.h"
#include "ir/Cloner.h"
#include "ir/Verifier.h"
#include "pm/InstrumentedPipeline.h"
#include "support/Error.h"
#include "support/Timer.h"

using namespace sxe;

CompiledVariant sxe::compileVariant(const Module &Pristine, Variant V,
                                    const TargetInfo &Target,
                                    const ProfileInfo *Profile) {
  PipelineConfig Config = PipelineConfig::forVariant(V, Target);
  Config.Profile = Profile;
  CompiledVariant Result{cloneModule(Pristine), {}};
  Result.Stats = runInstrumentedPipeline(*Result.M, Config).Stats;
  return Result;
}

VariantRun sxe::checkAndRunVariant(const Module &M, const TargetInfo &Target,
                                   uint64_t MaxSteps, bool Native) {
  VariantRun Run;
  VerifierOptions VOptions;
  VOptions.AllowDummyExtends = false;
  std::vector<std::string> Problems;
  if (!verifyModule(M, Problems, VOptions)) {
    Run.VerifyProblem = Problems.front();
    return Run;
  }

  InterpOptions MachineOptions;
  MachineOptions.Target = &Target;
  MachineOptions.MaxSteps = MaxSteps;
  Interpreter Interp(M, MachineOptions);
  uint64_t InterpStart = wallNowNanos();
  Run.Interp = Interp.run("main");
  Run.InterpWallNanos = wallNowNanos() - InterpStart;

  if (Native && &Target == &TargetInfo::x86_64() &&
      NativeModule::hostSupported()) {
    NativeOptions NOpts;
    NOpts.MaxSteps = MaxSteps;
    if (auto NM = NativeModule::compile(M, NOpts, &Run.NativeError)) {
      Run.NativeCompileNanos = NM->info().CompileNanos;
      uint64_t NativeStart = wallNowNanos();
      Run.Native = NM->run("main");
      Run.NativeWallNanos = wallNowNanos() - NativeStart;
      Run.NativeExecuted = true;
    }
  }
  return Run;
}

WorkloadReport sxe::runWorkload(const Workload &W,
                                const RunnerOptions &Options) {
  WorkloadReport Report;
  Report.Name = W.Name;
  Report.Suite = W.Suite;

  std::unique_ptr<Module> Pristine = W.Build(Options.Params);

  // Oracle + profile run under Java semantics (the interpreter tier). The
  // interpreter verifies the pristine module first.
  ProfileInfo Profile;
  InterpOptions JavaOptions;
  JavaOptions.Target = Options.Target;
  JavaOptions.Semantics = ExecSemantics::Java;
  JavaOptions.Profile = &Profile;
  ExecResult Oracle = Interpreter(*Pristine, JavaOptions).run("main");
  if (Oracle.Trap != TrapKind::None)
    reportFatalError(std::string("workload '") + W.Name +
                     "' traps under Java semantics: " + Oracle.TrapMessage);
  Report.OracleChecksum = Oracle.ReturnValue;

  for (Variant V : Options.Variants) {
    CompiledVariant Compiled =
        compileVariant(*Pristine, V, *Options.Target, &Profile);
    VariantRun Run = checkAndRunVariant(*Compiled.M, *Options.Target,
                                        JavaOptions.MaxSteps, Options.Native);
    if (!Run.VerifyProblem.empty())
      reportFatalError(std::string("workload '") + W.Name + "', variant '" +
                       variantName(V) +
                       "': post-pipeline verification failed: " +
                       Run.VerifyProblem);
    if (!Run.NativeError.empty())
      reportFatalError(std::string("workload '") + W.Name + "', variant '" +
                       variantName(V) +
                       "': native compile failed: " + Run.NativeError);

    const ExecResult &R = Run.Interp;
    VariantRow Row;
    Row.V = V;
    Row.Stats = std::move(Compiled.Stats);
    Row.StaticSext = countStaticExtensions(*Compiled.M).totalConversions();
    Row.InterpWallNanos = Run.InterpWallNanos;
    Row.NativeExecuted = Run.NativeExecuted;
    Row.NativeWallNanos = Run.NativeWallNanos;
    Row.NativeCompileNanos = Run.NativeCompileNanos;
    Row.NativeChecksumOK = Run.NativeExecuted &&
                           Run.Native.Trap == TrapKind::None &&
                           Run.Native.ReturnValue == Report.OracleChecksum;
    Row.Trap = R.Trap;
    Row.Checksum = R.ReturnValue;
    Row.ChecksumOK =
        R.Trap == TrapKind::None && R.ReturnValue == Report.OracleChecksum;
    Row.DynamicSext32 = R.ExecutedSext32;
    Row.DynamicSextAll = R.totalExecutedConversions();
    Row.Cycles = R.Cycles;
    Row.Instructions = R.ExecutedInstructions;
    Report.Rows.push_back(Row);
  }
  return Report;
}
