//===- tests/fuzz_test.cpp - Differential-testing subsystem tests -------------===//
//
// Covers the src/fuzz/ library itself: generator determinism and knob
// behaviour, the differential harness (including that an injected
// miscompile is caught), the greedy reducer, and a parser-fuzz smoke run.
// The heavy campaigns live in tools/sxe-difftest and tools/sxe-irfuzz;
// these tests keep the machinery honest at tier-1 speed.
//
//===--------------------------------------------------------------------------===//

#include "codegen/NativeEngine.h"
#include "fuzz/DiffTest.h"
#include "fuzz/ParserFuzzer.h"
#include "fuzz/RandomModuleGenerator.h"
#include "fuzz/Reducer.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

using namespace sxe;

namespace {

TEST(RandomModuleGeneratorTest, SameSeedSameModule) {
  for (uint64_t Seed : {1u, 7u, 42u}) {
    RandomModuleGenerator GenA(Seed, GeneratorOptions::medium());
    RandomModuleGenerator GenB(Seed, GeneratorOptions::medium());
    EXPECT_EQ(printModule(*GenA.generate()), printModule(*GenB.generate()))
        << "seed " << Seed;
  }
}

TEST(RandomModuleGeneratorTest, DifferentSeedsDiffer) {
  RandomModuleGenerator GenA(1, GeneratorOptions::medium());
  RandomModuleGenerator GenB(2, GeneratorOptions::medium());
  EXPECT_NE(printModule(*GenA.generate()), printModule(*GenB.generate()));
}

TEST(RandomModuleGeneratorTest, ModulesVerify) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    RandomModuleGenerator Gen(Seed, GeneratorOptions::medium());
    auto M = Gen.generate();
    std::vector<std::string> Problems;
    EXPECT_TRUE(verifyModule(*M, Problems))
        << "seed " << Seed << ": " << Problems.front();
  }
}

TEST(RandomModuleGeneratorTest, OracleTerminatesWithinBudget) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    RandomModuleGenerator Gen(Seed, GeneratorOptions::medium());
    auto M = Gen.generate();
    InterpOptions Java;
    Java.Semantics = ExecSemantics::Java;
    Java.MaxSteps = 1u << 22;
    ExecResult Result = Interpreter(*M, Java).run("main");
    EXPECT_NE(Result.Trap, TrapKind::StepLimit) << "seed " << Seed;
  }
}

TEST(RandomModuleGeneratorTest, DisablingCallsRemovesCalls) {
  GeneratorOptions Options = GeneratorOptions::medium();
  Options.EnableCalls = false;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    RandomModuleGenerator Gen(Seed, Options);
    auto M = Gen.generate();
    EXPECT_EQ(M->functions().size(), 1u) << "seed " << Seed;
    for (const auto &F : M->functions())
      for (const auto &BB : F->blocks())
        for (const Instruction &I : *BB)
          EXPECT_NE(I.opcode(), Opcode::Call) << "seed " << Seed;
  }
}

TEST(RandomModuleGeneratorTest, DisablingFloatRemovesFloatOps) {
  GeneratorOptions Options = GeneratorOptions::medium();
  Options.EnableFloat = false;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    RandomModuleGenerator Gen(Seed, Options);
    auto M = Gen.generate();
    for (const auto &F : M->functions())
      for (const auto &BB : F->blocks())
        for (const Instruction &I : *BB) {
          EXPECT_NE(I.opcode(), Opcode::I2D) << "seed " << Seed;
          EXPECT_NE(I.opcode(), Opcode::D2I) << "seed " << Seed;
        }
  }
}

TEST(DiffTestHarness, PassesOnSeedRange) {
  for (uint64_t Seed = 100; Seed < 110; ++Seed) {
    RandomModuleGenerator Gen(Seed, GeneratorOptions::small());
    auto M = Gen.generate();
    DiffResult Result = runDifferentialTest(*M);
    EXPECT_TRUE(Result.ok())
        << "seed " << Seed << ": " << Result.Failure->describe();
  }
}

TEST(DiffTestHarness, NativeEngineRunsEveryX8664Variant) {
  if (!NativeModule::hostSupported())
    GTEST_SKIP() << "host cannot execute emitted x86-64 code";
  DiffConfig Config;
  Config.Targets = {&TargetInfo::x86_64()};
  Config.NativeEngine = true;
  for (uint64_t Seed = 100; Seed < 105; ++Seed) {
    RandomModuleGenerator Gen(Seed, GeneratorOptions::small());
    auto M = Gen.generate();
    DiffResult Result = runDifferentialTest(*M, Config);
    EXPECT_TRUE(Result.ok())
        << "seed " << Seed << ": " << Result.Failure->describe();
    EXPECT_GT(Result.NativeRuns, 0u) << "seed " << Seed;
    EXPECT_EQ(Result.NativeRuns, Result.PipelinesRun) << "seed " << Seed;
  }
}

/// Deletes the first sign extension in main — the canonical miscompile.
void deleteFirstSext(Module &M, Variant V, const TargetInfo &Target) {
  if (V != Variant::All || Target.name() != "ia64")
    return;
  Function *Main = M.findFunction("main");
  if (!Main)
    return;
  for (const auto &BB : Main->blocks())
    for (Instruction &I : *BB)
      if (isSextOpcode(I.opcode())) {
        BB->erase(&I);
        return;
      }
}

TEST(DiffTestHarness, CatchesInjectedMiscompile) {
  DiffConfig Config;
  Config.PostPipelineMutator = deleteFirstSext;

  // Not every module is sensitive to its first extension being dropped,
  // but a bounded seed scan must surface at least one detection.
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 10 && !Caught; ++Seed) {
    RandomModuleGenerator Gen(Seed, GeneratorOptions::medium());
    auto M = Gen.generate();
    DiffResult Result = runDifferentialTest(*M, Config);
    if (!Result.ok() &&
        Result.Failure->Status != DiffStatus::OracleStepLimit)
      Caught = true;
  }
  EXPECT_TRUE(Caught) << "injected miscompile never detected in 10 seeds";
}

TEST(ReducerTest, ShrinksWhileFailurePersists) {
  // Find a seed the injected bug breaks, then reduce it.
  DiffConfig Config;
  Config.PostPipelineMutator = deleteFirstSext;

  std::unique_ptr<Module> Failing;
  DiffStatus FailureKind = DiffStatus::Ok;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    RandomModuleGenerator Gen(Seed, GeneratorOptions::medium());
    auto M = Gen.generate();
    DiffResult Result = runDifferentialTest(*M, Config);
    if (!Result.ok() &&
        Result.Failure->Status != DiffStatus::OracleStepLimit) {
      Failing = std::move(M);
      FailureKind = Result.Failure->Status;
      break;
    }
  }
  ASSERT_TRUE(Failing) << "no failing seed found to reduce";

  auto StillFails = [&](const Module &M) {
    DiffResult Result = runDifferentialTest(M, Config);
    return !Result.ok() && Result.Failure->Status == FailureKind;
  };

  ReductionStats Stats;
  auto Reduced = reduceModule(*Failing, StillFails, &Stats);
  ASSERT_TRUE(Reduced);
  EXPECT_LT(Stats.ReducedInstructions, Stats.OriginalInstructions);
  EXPECT_TRUE(StillFails(*Reduced));

  // The minimized module still verifies and round-trips through the
  // textual format, ready to land in tests/corpus/.
  std::vector<std::string> Problems;
  EXPECT_TRUE(verifyModule(*Reduced, Problems)) << Problems.front();
  std::string Printed = printModule(*Reduced);
  ParseResult Parsed = parseModule(Printed);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  EXPECT_EQ(printModule(*Parsed.M), Printed);
}

TEST(ParserFuzzSmoke, SurvivesAdversarialInput) {
  ParserFuzzStats Stats;
  runParserFuzz(/*Seed=*/1, /*Inputs=*/20000, ParserFuzzOptions(), &Stats);
  EXPECT_EQ(Stats.Inputs, 20000u);
  // Mutated-valid-module inputs guarantee some parses succeed, so the
  // accept path (verify + reprint) is genuinely exercised.
  EXPECT_GT(Stats.Accepted, 0u);
  EXPECT_GT(Stats.Rejected, 0u);
  EXPECT_EQ(Stats.Accepted + Stats.Rejected, Stats.Inputs);
}

} // namespace
