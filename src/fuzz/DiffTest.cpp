//===- fuzz/DiffTest.cpp - Semantic-oracle differential harness -------------===//

#include "fuzz/DiffTest.h"

#include "codegen/NativeEngine.h"
#include "ir/Cloner.h"
#include "ir/Verifier.h"
#include "pm/InstrumentedPipeline.h"

using namespace sxe;

const char *sxe::diffStatusName(DiffStatus Status) {
  switch (Status) {
  case DiffStatus::Ok:
    return "ok";
  case DiffStatus::OracleStepLimit:
    return "oracle step limit";
  case DiffStatus::VerifyFailed:
    return "verifier failure";
  case DiffStatus::TrapMismatch:
    return "trap mismatch";
  case DiffStatus::ChecksumMismatch:
    return "checksum mismatch";
  case DiffStatus::WildAddress:
    return "wild address";
  case DiffStatus::ExtensionRegression:
    return "extension-census regression";
  case DiffStatus::NativeMismatch:
    return "native-execution mismatch";
  }
  return "unknown";
}

std::string DiffFailure::describe() const {
  std::string Text = diffStatusName(Status);
  if (Target) {
    Text += " [";
    Text += variantName(V);
    Text += ", ";
    Text += Target->name();
    Text += "]";
  }
  if (!Detail.empty()) {
    Text += ": ";
    Text += Detail;
  }
  return Text;
}

DiffResult sxe::runDifferentialTest(const Module &Pristine,
                                    const DiffConfig &Config) {
  DiffResult Result;
  auto fail = [&](DiffStatus Status, Variant V, const TargetInfo *Target,
                  std::string Detail) {
    Result.Failure = DiffFailure{Status, V, Target, std::move(Detail)};
    return Result;
  };

  std::vector<std::string> Problems;
  if (!verifyModule(Pristine, Problems))
    return fail(DiffStatus::VerifyFailed, Variant::Baseline, nullptr,
                "pristine module: " + Problems.front());

  InterpOptions JavaOptions;
  JavaOptions.Semantics = ExecSemantics::Java;
  JavaOptions.MaxSteps = Config.MaxSteps;
  JavaOptions.MaxArrayLen = Config.MaxArrayLen;
  ExecResult Oracle =
      Interpreter(Pristine, JavaOptions).run(Config.EntryFunction);
  Result.OracleTrap = Oracle.Trap;
  Result.OracleChecksum = Oracle.ReturnValue;
  if (Oracle.Trap == TrapKind::StepLimit)
    return fail(DiffStatus::OracleStepLimit, Variant::Baseline, nullptr,
                "the oracle exhausted " + std::to_string(Config.MaxSteps) +
                    " steps");

  std::vector<const TargetInfo *> Targets = Config.Targets;
  if (Targets.empty())
    Targets = {&TargetInfo::ia64(), &TargetInfo::ppc64(),
               &TargetInfo::generic64(), &TargetInfo::x86_64()};
  std::vector<Variant> Variants = Config.Variants;
  if (Variants.empty())
    Variants.assign(AllVariants, AllVariants + NumVariants);

  for (const TargetInfo *Target : Targets) {
    bool HaveBaseline = false;
    uint64_t BaselineSext = 0;
    for (Variant V : Variants) {
      auto Clone = cloneModule(Pristine);
      PipelineConfig PC = PipelineConfig::forVariant(V, *Target);
      PC.MaxArrayLen = Config.MaxArrayLen;
      runInstrumentedPipeline(*Clone, PC);
      ++Result.PipelinesRun;
      if (Config.PostPipelineMutator)
        Config.PostPipelineMutator(*Clone, V, *Target);

      VerifierOptions VO;
      VO.AllowDummyExtends = false;
      Problems.clear();
      if (!verifyModule(*Clone, Problems, VO))
        return fail(DiffStatus::VerifyFailed, V, Target, Problems.front());

      InterpOptions MachineOptions;
      MachineOptions.Target = Target;
      MachineOptions.MaxSteps = Config.MaxSteps;
      MachineOptions.MaxArrayLen = Config.MaxArrayLen;
      ExecResult Got =
          Interpreter(*Clone, MachineOptions).run(Config.EntryFunction);

      if (Got.Trap == TrapKind::WildAddress)
        return fail(DiffStatus::WildAddress, V, Target, Got.TrapMessage);
      if (Got.Trap != Oracle.Trap)
        return fail(DiffStatus::TrapMismatch, V, Target,
                    std::string("oracle ") + trapKindName(Oracle.Trap) +
                        ", optimized " + trapKindName(Got.Trap));
      if (Oracle.Trap == TrapKind::None &&
          Got.ReturnValue != Oracle.ReturnValue)
        return fail(DiffStatus::ChecksumMismatch, V, Target,
                    "oracle " + std::to_string(Oracle.ReturnValue) +
                        ", optimized " + std::to_string(Got.ReturnValue));

      // Clause 5 (when enabled): the emitted x86-64 code must agree with
      // the machine-semantics interpreter it was compiled to match. The
      // optimized run cannot be step-limited here (that would have been a
      // trap mismatch above), but the native engine's block-granular fuel
      // can exhaust slightly early, so a native StepLimit is skipped.
      if (Config.NativeEngine && Target == &TargetInfo::x86_64() &&
          NativeModule::hostSupported()) {
        NativeOptions NOpts;
        NOpts.MaxSteps = Config.MaxSteps;
        NOpts.MaxArrayLen = Config.MaxArrayLen;
        std::string Error;
        if (auto NM = NativeModule::compile(*Clone, NOpts, &Error)) {
          ExecResult Native = NM->run(Config.EntryFunction);
          ++Result.NativeRuns;
          if (Native.Trap != TrapKind::StepLimit) {
            if (Native.Trap != Got.Trap)
              return fail(DiffStatus::NativeMismatch, V, Target,
                          std::string("interpreter ") +
                              trapKindName(Got.Trap) + ", native " +
                              trapKindName(Native.Trap));
            if (Got.Trap == TrapKind::None &&
                Native.ReturnValue != Got.ReturnValue)
              return fail(DiffStatus::NativeMismatch, V, Target,
                          "interpreter " + std::to_string(Got.ReturnValue) +
                              ", native " +
                              std::to_string(Native.ReturnValue));
          }
        }
      }

      if (V == Variant::Baseline) {
        HaveBaseline = true;
        BaselineSext = Got.totalExecutedConversions();
      }
      if (V == Variant::All && HaveBaseline &&
          Oracle.Trap == TrapKind::None &&
          Got.totalExecutedConversions() > BaselineSext)
        return fail(DiffStatus::ExtensionRegression, V, Target,
                    "baseline executed " + std::to_string(BaselineSext) +
                        " conversions, all executed " +
                        std::to_string(Got.totalExecutedConversions()));
    }
  }
  return Result;
}
