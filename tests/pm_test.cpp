//===- tests/pm_test.cpp - Pass-manager instrumentation invariants --------------===//
//
// Locks the contracts of the src/pm/ layer:
//
//  - per-pass counters are additive across functions (running {f}, {g},
//    and {f, g} through the same pipeline sums each counter, mode flags
//    excepted);
//  - the elimination pass's `sext_eliminated` counter equals the
//    before/after delta of the static extension census;
//  - verify-each names a deliberately-broken injected pass, both for IR
//    corruption and for a silent extension-census regression;
//  - timers cover exactly the pipeline's pass sequence;
//  - the JSON report carries the locked `sxe.pass-stats.v1` envelope.
//
//===---------------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "parser/Parser.h"
#include "pm/InstrumentedPipeline.h"
#include "pm/Passes.h"
#include "pm/Report.h"
#include "target/StaticCounts.h"

#include <gtest/gtest.h>

using namespace sxe;

namespace {

// A countdown array sum: the i-1 subscript forces extension traffic.
const char *FuncF = R"(
func @f(%a: arrayref, %n: i32) -> i32 {
  reg %i: i32
  reg %t: i32
  reg %one: i32
  reg %zero: i32
  reg %v: i32
  reg %c: i32
entry:
  %i = copy %n
  %t = const.i32 0
  %one = const.i32 1
  %zero = const.i32 0
  jmp loop
loop:
  %i = sub.w32 %i, %one
  %v = arrayload.i32 %a, %i
  %t = add.w32 %t, %v
  %c = cmp.w32 sgt %i, %zero
  br %c, loop, exit
exit:
  ret %t
}
)";

// A forward masked sum (Figure 3's shape): different counter profile.
const char *FuncG = R"(
func @g(%a: arrayref, %n: i32) -> i32 {
  reg %i: i32
  reg %t: i32
  reg %one: i32
  reg %mask: i32
  reg %v: i32
  reg %c: i32
entry:
  %i = const.i32 0
  %t = const.i32 0
  %one = const.i32 1
  %mask = const.i32 268435455
  jmp loop
loop:
  %v = arrayload.i32 %a, %i
  %v = and.w32 %v, %mask
  %t = add.w32 %t, %v
  %i = add.w32 %i, %one
  %c = cmp.w32 slt %i, %n
  br %c, loop, exit
exit:
  ret %t
}
)";

std::unique_ptr<Module> parseFixture(const std::string &Name,
                                     const std::string &Bodies) {
  ParseResult Parsed = parseModule("module \"" + Name + "\"\n" + Bodies);
  EXPECT_TRUE(Parsed.ok()) << Parsed.Error;
  return std::move(Parsed.M);
}

/// Mode flags are assigned, not accumulated, so they fall outside the
/// additivity invariant.
bool isModeFlag(const StatEntry &E) {
  return E.Name == "pde_variant" || E.Name == "by_frequency";
}

/// A test-only pass that corrupts the IR: it points an operand of the
/// first instruction at a register that does not exist.
class CorruptingPass : public Pass {
public:
  const char *name() const override { return "corruptor"; }
  void run(Function &F, PassContext &) override {
    for (Instruction &I : *F.entryBlock())
      if (I.numOperands() > 0) {
        I.setOperand(0, 999999);
        return;
      }
  }
};

/// A test-only pass that silently inserts a sign extension without
/// declaring mayAddExtensions() — the census check must flag it.
class SneakySextPass : public Pass {
public:
  const char *name() const override { return "sneaky-sext"; }
  void run(Function &F, PassContext &) override {
    for (Instruction &I : *F.entryBlock())
      if (I.hasDest() && I.type() == Type::I32 && !I.isTerminator()) {
        Instruction *Ext = F.newInstruction(Opcode::Sext32);
        Ext->setDest(I.dest());
        Ext->addOperand(I.dest());
        F.entryBlock()->insertAfter(&I, Ext);
        return;
      }
  }
};

} // namespace

TEST(PassStatsTest, CountersAdditiveAcrossFunctions) {
  auto OnlyF = parseFixture("mf", FuncF);
  auto OnlyG = parseFixture("mg", FuncG);
  auto Both = parseFixture("mfg", std::string(FuncF) + FuncG);

  PipelineConfig Config = PipelineConfig::forVariant(Variant::All);
  InstrumentedPipelineResult RF = runInstrumentedPipeline(*OnlyF, Config);
  InstrumentedPipelineResult RG = runInstrumentedPipeline(*OnlyG, Config);
  InstrumentedPipelineResult RBoth = runInstrumentedPipeline(*Both, Config);

  ASSERT_FALSE(RBoth.Stats.entries().empty());
  for (const StatEntry &E : RBoth.Stats.entries()) {
    if (isModeFlag(E))
      continue;
    EXPECT_EQ(E.Value, RF.Stats.value(E.Pass, E.Name) +
                           RG.Stats.value(E.Pass, E.Name))
        << E.Pass << "/" << E.Name;
  }
  // The parts never out-count the whole (counters are non-negative and
  // registered under the same pass names).
  for (const StatEntry &E : RF.Stats.entries())
    EXPECT_EQ(RBoth.Stats.value(E.Pass, E.Name) >= E.Value || isModeFlag(E),
              true)
        << E.Pass << "/" << E.Name;
}

TEST(PassStatsTest, EliminatedEqualsStaticCensusDelta) {
  auto M = parseFixture("mfg", std::string(FuncF) + FuncG);
  PipelineConfig Config = PipelineConfig::forVariant(Variant::All);
  PassStats Stats;
  PassContext Ctx(Config, Stats);

  // Everything up to (but excluding) elimination.
  PassManager Front;
  Front.add(createConversion64Pass(Config.Gen));
  Front.add(createGeneralOptsPass());
  Front.add(createDummyInsertionPass());
  Front.add(createInsertionPass(/*UsePDE=*/false));
  Front.add(createOrderDeterminationPass(/*ByFrequency=*/true));
  ASSERT_TRUE(Front.run(*M, Ctx));
  uint64_t Before = countStaticExtensions(*M).totalSext();

  // Elimination alone, sharing the context (inserted set + order).
  PassManager Back;
  Back.add(createEliminationPass());
  ASSERT_TRUE(Back.run(*M, Ctx));
  uint64_t After = countStaticExtensions(*M).totalSext();

  uint64_t Eliminated = Stats.value("elimination", "sext_eliminated");
  EXPECT_GT(Eliminated, 0u);
  EXPECT_EQ(Before - After, Eliminated);
}

TEST(VerifyEachTest, NamesTheCorruptingPass) {
  auto M = parseFixture("mf", FuncF);
  PipelineConfig Config = PipelineConfig::forVariant(Variant::All);
  PassStats Stats;
  PassContext Ctx(Config, Stats);

  PassManagerOptions Options;
  Options.VerifyEach = true;
  PassManager PM(Options);
  PM.add(createConversion64Pass(Config.Gen));
  PM.add(std::make_unique<CorruptingPass>());
  PM.add(createGeneralOptsPass());

  EXPECT_FALSE(PM.run(*M, Ctx));
  ASSERT_NE(PM.failure(), nullptr);
  EXPECT_EQ(PM.failure()->PassName, "corruptor");
  ASSERT_FALSE(PM.failure()->Problems.empty());
}

TEST(VerifyEachTest, CensusRegressionNamesTheOffendingPass) {
  auto M = parseFixture("mf", FuncF);
  PipelineConfig Config = PipelineConfig::forVariant(Variant::All);
  PassStats Stats;
  PassContext Ctx(Config, Stats);

  PassManagerOptions Options;
  Options.VerifyEach = true;
  PassManager PM(Options);
  PM.add(createConversion64Pass(Config.Gen));
  PM.add(std::make_unique<SneakySextPass>());

  EXPECT_FALSE(PM.run(*M, Ctx));
  ASSERT_NE(PM.failure(), nullptr);
  EXPECT_EQ(PM.failure()->PassName, "sneaky-sext");
  ASSERT_FALSE(PM.failure()->Problems.empty());
  EXPECT_NE(PM.failure()->Problems.front().find("census"), std::string::npos);
}

TEST(VerifyEachTest, CleanPipelinePasses) {
  auto M = parseFixture("mfg", std::string(FuncF) + FuncG);
  PipelineConfig Config = PipelineConfig::forVariant(Variant::All);
  PassManagerOptions Options;
  Options.VerifyEach = true;
  InstrumentedPipelineResult R = runInstrumentedPipeline(*M, Config, Options);
  EXPECT_TRUE(R.Ok);
  EXPECT_TRUE(R.FailedPass.empty());
}

TEST(PassTimingTest, TimersCoverThePipelineInOrder) {
  auto M = parseFixture("mf", FuncF);
  PipelineConfig Config = PipelineConfig::forVariant(Variant::All);
  InstrumentedPipelineResult R = runInstrumentedPipeline(*M, Config);

  std::vector<std::string> Names;
  for (const PassTiming &T : R.Timings) {
    Names.push_back(T.Name);
    EXPECT_EQ(T.Runs, 1u) << T.Name;
  }
  std::vector<std::string> Expected = {"conversion64",    "general-opts",
                                       "dummy-insertion", "insertion",
                                       "order-determination", "elimination"};
  EXPECT_EQ(Names, Expected);

  // Baseline runs no sign-ext engine at all.
  auto M2 = parseFixture("mf", FuncF);
  InstrumentedPipelineResult R2 = runInstrumentedPipeline(
      *M2, PipelineConfig::forVariant(Variant::Baseline));
  for (const PassTiming &T : R2.Timings)
    EXPECT_NE(T.Group, Pass::Group::SignExt) << T.Name;
}

TEST(PassTimingTest, SnapshotsFollowThePassSequence) {
  auto M = parseFixture("mf", FuncF);
  PipelineConfig Config = PipelineConfig::forVariant(Variant::All);
  PassManagerOptions Options;
  Options.CaptureSnapshots = true;
  InstrumentedPipelineResult R = runInstrumentedPipeline(*M, Config, Options);

  ASSERT_EQ(R.Snapshots.size(), R.Timings.size());
  for (size_t Index = 0; Index < R.Snapshots.size(); ++Index) {
    EXPECT_EQ(R.Snapshots[Index].PassName, R.Timings[Index].Name);
    // Every snapshot is parseable IR.
    ParseResult Reparsed = parseModule(R.Snapshots[Index].IR);
    EXPECT_TRUE(Reparsed.ok())
        << "snapshot after " << R.Snapshots[Index].PassName << ": "
        << Reparsed.Error;
  }
  // The final snapshot is the final module.
  EXPECT_EQ(R.Snapshots.back().IR, printModule(*M));
}

TEST(ReportTest, JsonCarriesTheLockedSchema) {
  auto M = parseFixture("mf", FuncF);
  PipelineConfig Config = PipelineConfig::forVariant(Variant::All);
  InstrumentedPipelineResult R = runInstrumentedPipeline(*M, Config);

  StatsReportInfo Info;
  Info.ModuleName = "mf";
  Info.VariantLabel = variantName(Variant::All);
  Info.TargetName = Config.Target->name();
  Info.ChainCreationNanos = R.ChainCreationNanos;
  std::string Json = statsReportJson(R.Stats, R.Timings, Info);

  EXPECT_NE(Json.find("\"schema\": \"sxe.pass-stats.v1\""), std::string::npos);
  EXPECT_NE(Json.find("\"passes\": ["), std::string::npos);
  EXPECT_NE(Json.find("\"name\": \"elimination\""), std::string::npos);
  EXPECT_NE(Json.find("\"sext_eliminated\":"), std::string::npos);
  EXPECT_NE(Json.find("\"totals\": {"), std::string::npos);

  // Deterministic mode keeps the timing keys but zeroes the values.
  Info.IncludeTimings = false;
  std::string Golden = statsReportJson(R.Stats, R.Timings, Info);
  EXPECT_NE(Golden.find("\"wall_ns\": 0"), std::string::npos);
  EXPECT_NE(Golden.find("\"chain_creation_ns\": 0"), std::string::npos);
  EXPECT_EQ(Golden.find("\"wall_ns\": 1"), std::string::npos);
}
