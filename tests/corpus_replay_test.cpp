//===- tests/corpus_replay_test.cpp - Pinned-program regression corpus ----------===//
//
// Replays the checked-in programs under tests/corpus/ — hand-picked
// outputs of the random_program_test generator — through every pipeline
// variant with the same differential checks the fuzzer applies:
//
//   - the post-pipeline module verifies with no dummy extensions left,
//   - machine-semantics execution matches the Java-semantics oracle
//     (checksum AND trap kind), with no wild addresses,
//   - the full algorithm never executes more conversions (sign/zero
//     extensions and truncations) than baseline,
//   - the optimization-remarks stream is consistent with the pass
//     counters: eliminated remarks sum to sext_eliminated +
//     zext_eliminated + trunc_eliminated, and the per-remark theorem
//     attribution sums to theorem1..4_fired.
//
// Unlike the fuzzer, these programs never change, so a failure here
// bisects cleanly to the offending pipeline commit.
//
//===---------------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Cloner.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "obs/Remarks.h"
#include "parser/Parser.h"
#include "pm/InstrumentedPipeline.h"
#include "sxe/Pipeline.h"

#include <fstream>
#include <sstream>
#include <gtest/gtest.h>

using namespace sxe;

namespace {

std::unique_ptr<Module> loadCorpusFile(const std::string &Name) {
  std::string Path =
      std::string(SXE_SOURCE_DIR) + "/tests/corpus/" + Name + ".sxir";
  std::ifstream In(Path);
  EXPECT_TRUE(static_cast<bool>(In)) << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  ParseResult Parsed = parseModule(Buffer.str());
  EXPECT_TRUE(Parsed.ok()) << Path << ": " << Parsed.Error;
  return std::move(Parsed.M);
}

class CorpusReplay : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(CorpusReplay, AllVariantsMatchJavaOracle) {
  std::unique_ptr<Module> Pristine = loadCorpusFile(GetParam());
  ASSERT_NE(Pristine, nullptr);

  std::vector<std::string> Problems;
  ASSERT_TRUE(verifyModule(*Pristine, Problems)) << Problems.front();

  InterpOptions Java;
  Java.Semantics = ExecSemantics::Java;
  Java.MaxSteps = 1u << 22;
  ExecResult Oracle = Interpreter(*Pristine, Java).run("main");
  ASSERT_NE(Oracle.Trap, TrapKind::StepLimit);

  uint64_t BaselineSext = 0;
  for (Variant V : AllVariants) {
    auto Clone = cloneModule(*Pristine);
    runInstrumentedPipeline(*Clone, PipelineConfig::forVariant(V));

    VerifierOptions Options;
    Options.AllowDummyExtends = false;
    Problems.clear();
    ASSERT_TRUE(verifyModule(*Clone, Problems, Options))
        << variantName(V) << ": " << Problems.front();

    InterpOptions Machine;
    Machine.MaxSteps = 1u << 22;
    ExecResult Got = Interpreter(*Clone, Machine).run("main");

    EXPECT_NE(Got.Trap, TrapKind::WildAddress)
        << variantName(V) << ": miscompile detected\n"
        << printModule(*Clone);
    EXPECT_EQ(Got.Trap, Oracle.Trap) << variantName(V);
    if (Oracle.Trap == TrapKind::None) {
      EXPECT_EQ(Got.ReturnValue, Oracle.ReturnValue) << variantName(V);
    }

    if (V == Variant::Baseline)
      BaselineSext = Got.totalExecutedConversions();
    if (V == Variant::All && Oracle.Trap == TrapKind::None) {
      EXPECT_LE(Got.totalExecutedConversions(), BaselineSext);
    }
  }
}

// The remarks stream is a per-conversion decomposition of the aggregate
// pass counters, so the sums must agree exactly for every corpus module:
// eliminated remarks reproduce sext_eliminated + zext_eliminated +
// trunc_eliminated, eliminated+retained cover every analyzed conversion,
// and the theorem attribution fields reproduce theorem1..4_fired.
TEST_P(CorpusReplay, RemarkCountsMatchPassCounters) {
  std::unique_ptr<Module> M = loadCorpusFile(GetParam());
  ASSERT_NE(M, nullptr);

  PassManagerOptions Options;
  Options.CollectRemarks = true;
  InstrumentedPipelineResult Result = runInstrumentedPipeline(
      *M, PipelineConfig::forVariant(Variant::All), Options);
  ASSERT_TRUE(Result.Ok);

  uint64_t Eliminated = 0, Retained = 0, T1 = 0, T2 = 0, T3 = 0, T4 = 0;
  for (const Remark &R : Result.Remarks.remarks()) {
    if (R.Pass != "elimination")
      continue;
    if (R.Decision == RemarkDecision::Eliminated)
      Eliminated += R.Count;
    if (R.Decision == RemarkDecision::Retained)
      Retained += R.Count;
    T1 += R.Theorem1;
    T2 += R.Theorem2;
    T3 += R.Theorem3;
    T4 += R.Theorem4;
  }
  const PassStats &Stats = Result.Stats;
  EXPECT_EQ(Eliminated, Stats.value("elimination", "sext_eliminated") +
                            Stats.value("elimination", "zext_eliminated") +
                            Stats.value("elimination", "trunc_eliminated"));
  EXPECT_EQ(Eliminated + Retained, Stats.value("elimination", "analyzed"));
  EXPECT_EQ(T1, Stats.value("elimination", "theorem1_fired"));
  EXPECT_EQ(T2, Stats.value("elimination", "theorem2_fired"));
  EXPECT_EQ(T3, Stats.value("elimination", "theorem3_fired"));
  EXPECT_EQ(T4, Stats.value("elimination", "theorem4_fired"));
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusReplay,
                         ::testing::Values("generated_small",
                                           "generated_medium",
                                           "generated_large",
                                           // Reducer-minimized miscompile
                                           // repros; see each file's header
                                           // for the bug it pinned down.
                                           "reduced_call_boundary",
                                           "reduced_loop_carried",
                                           "reduced_mixed_store",
                                           "reduced_char_compare",
                                           "reduced_w32_inductive_sext",
                                           "reduced_copy_demand"));
