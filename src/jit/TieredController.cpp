//===- jit/TieredController.cpp - Interpret, profile, recompile ---------------===//

#include "jit/TieredController.h"

#include "codegen/NativeEngine.h"
#include "ir/Cloner.h"
#include "parser/Parser.h"

using namespace sxe;

/// Every tier runs main; both compiled tiers run the full algorithm; the
/// warm-up and tier 3 stop after WarmupMaxSteps.
static constexpr const char *Entry = "main";
static constexpr Variant TierVariant = Variant::All;
static constexpr uint64_t WarmupMaxSteps = 1ull << 24;

TieredController::TieredController(CompileService &Service,
                                   TieredOptions Options)
    : Service(Service), Options(std::move(Options)) {}

TieredOutcome TieredController::run(const Module &M,
                                    const std::vector<uint64_t> &Args) {
  TieredOutcome Outcome;

  // Tier 0: the interpreter tier. Java semantics models the bytecode
  // interpreter; profile recording keys on (function, instruction id),
  // which the cloner preserves, so the counts transfer to the compile
  // tiers' clones.
  Profile.clear();
  InterpOptions Warmup;
  Warmup.Target = Options.Target;
  Warmup.Semantics = ExecSemantics::Java;
  Warmup.MaxSteps = WarmupMaxSteps;
  Warmup.Profile = &Profile;
  Outcome.Warmup = Interpreter(M, Warmup).run(Entry, Args);
  Outcome.ProfileCollected = !Profile.empty();

  PipelineConfig Config =
      PipelineConfig::forVariant(TierVariant, *Options.Target);

  CompileRequest Tier1;
  Tier1.Name = M.name() + ":tier1";
  Tier1.M = cloneModule(M);
  Tier1.Config = Config;
  Tier1.Hotness = 0.0; // Background tier: yields to hot recompiles.
  std::future<CompileResult> UnprofiledFuture =
      Service.enqueue(std::move(Tier1));

  CompileRequest Tier2;
  Tier2.Name = M.name() + ":tier2";
  Tier2.M = cloneModule(M);
  Tier2.Config = Config;
  Tier2.Config.Profile = &Profile;
  // The hotter the warm-up ran, the sooner the recompile is served.
  Tier2.Hotness = static_cast<double>(Outcome.Warmup.ExecutedInstructions);
  std::future<CompileResult> ProfiledFuture = Service.enqueue(std::move(Tier2));

  Outcome.Unprofiled = UnprofiledFuture.get();
  Outcome.Profiled = ProfiledFuture.get();

  // Tier 3: run the recompiled code for real. The artifact round-trips
  // through its textual form — the same bytes a cache hit or the serve
  // path would deliver — so what executes natively is exactly what the
  // pipeline shipped.
  if (Outcome.Profiled.ok() && Options.Target == &TargetInfo::x86_64() &&
      NativeModule::hostSupported()) {
    ParseResult Parsed = parseModule(Outcome.Profiled.Code->IRText);
    if (Parsed.ok()) {
      NativeOptions NOpts;
      NOpts.MaxSteps = WarmupMaxSteps;
      if (auto NM = NativeModule::compile(*Parsed.M, NOpts)) {
        Outcome.Native = NM->run(Entry, Args);
        Outcome.NativeExecuted = true;
      }
    }
  }
  return Outcome;
}
