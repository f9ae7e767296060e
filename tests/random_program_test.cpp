//===- tests/random_program_test.cpp - Differential fuzzing -----------------------===//
//
// Property test over seeded random modules from fuzz/RandomModuleGenerator
// (the generator that used to be inlined here, now a library shared with
// tools/sxe-difftest). For every pipeline variant the four oracle-contract
// invariants are checked explicitly:
//   - the post-pipeline module verifies with no dummy extensions left,
//   - machine-semantics execution matches the Java-semantics oracle
//     (checksum AND trap kind),
//   - the wild-address detector never fires,
//   - the full algorithm never executes more extensions than the baseline.
//
//===--------------------------------------------------------------------------------===//

#include "fuzz/DiffTest.h"
#include "fuzz/RandomModuleGenerator.h"
#include "interp/Interpreter.h"
#include "ir/Cloner.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "pm/InstrumentedPipeline.h"
#include "sxe/Pipeline.h"

#include <gtest/gtest.h>

using namespace sxe;

namespace {

class RandomProgramSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramSweep, AllVariantsMatchJavaOracle) {
  RandomModuleGenerator Gen(GetParam(), GeneratorOptions::medium());
  std::unique_ptr<Module> Pristine = Gen.generate();

  std::vector<std::string> Problems;
  ASSERT_TRUE(verifyModule(*Pristine, Problems))
      << Problems.front() << "\n"
      << printModule(*Pristine);

  InterpOptions Java;
  Java.Semantics = ExecSemantics::Java;
  Java.MaxSteps = 1u << 22;
  ExecResult Oracle = Interpreter(*Pristine, Java).run("main");
  ASSERT_NE(Oracle.Trap, TrapKind::StepLimit);

  uint64_t BaselineSext = 0;
  for (Variant V : AllVariants) {
    auto Clone = cloneModule(*Pristine);
    runInstrumentedPipeline(*Clone, PipelineConfig::forVariant(V));

    // Invariant 1: verifier-clean with no dummy extensions left behind.
    VerifierOptions Options;
    Options.AllowDummyExtends = false;
    Problems.clear();
    ASSERT_TRUE(verifyModule(*Clone, Problems, Options))
        << variantName(V) << ": " << Problems.front();

    InterpOptions Machine;
    Machine.MaxSteps = 1u << 22;
    ExecResult Got = Interpreter(*Clone, Machine).run("main");

    // Invariant 3: the wild-address miscompile detector never fires.
    EXPECT_NE(Got.Trap, TrapKind::WildAddress)
        << variantName(V) << ": miscompile detected\n"
        << printModule(*Clone);
    // Invariant 2: trap kind and checksum match the oracle.
    EXPECT_EQ(Got.Trap, Oracle.Trap) << variantName(V);
    if (Oracle.Trap == TrapKind::None) {
      EXPECT_EQ(Got.ReturnValue, Oracle.ReturnValue)
          << variantName(V) << "\n"
          << printModule(*Clone);
    }

    // Invariant 4: the full algorithm never executes more extensions
    // than the baseline (extension-census no-regression).
    if (V == Variant::Baseline)
      BaselineSext = Got.totalExecutedSext();
    if (V == Variant::All && Oracle.Trap == TrapKind::None) {
      EXPECT_LE(Got.totalExecutedSext(), BaselineSext);
    }
  }

  // The full algorithm must also be sound on the other target models
  // (PPC64's implicit extension; generic64's missing 32-bit compares).
  for (const TargetInfo *Target :
       {&TargetInfo::ppc64(), &TargetInfo::generic64()}) {
    auto Clone = cloneModule(*Pristine);
    runInstrumentedPipeline(*Clone,
                            PipelineConfig::forVariant(Variant::All, *Target));
    InterpOptions Machine;
    Machine.Target = Target;
    Machine.MaxSteps = 1u << 22;
    ExecResult Got = Interpreter(*Clone, Machine).run("main");
    EXPECT_NE(Got.Trap, TrapKind::WildAddress) << Target->name();
    EXPECT_EQ(Got.Trap, Oracle.Trap) << Target->name();
    if (Oracle.Trap == TrapKind::None) {
      EXPECT_EQ(Got.ReturnValue, Oracle.ReturnValue) << Target->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramSweep,
                         ::testing::Range<uint64_t>(1, 81));

// The shared harness enforces the same contract: a module that passes the
// explicit checks above must also pass runDifferentialTest, which is what
// tools/sxe-difftest scales up to thousands of seeds.
TEST(RandomProgramSweep, HarnessAgreesWithExplicitChecks) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    RandomModuleGenerator Gen(Seed, GeneratorOptions::medium());
    std::unique_ptr<Module> Pristine = Gen.generate();
    DiffResult Result = runDifferentialTest(*Pristine);
    EXPECT_TRUE(Result.ok())
        << "seed " << Seed << ": " << Result.Failure->describe();
  }
}

} // namespace
