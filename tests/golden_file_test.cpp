//===- tests/golden_file_test.cpp - Golden stats + snapshot documents -----------===//
//
// Runs the full pipeline over the two checked-in example programs for all
// four targets and compares three artifacts per run against goldens in
// tests/golden/:
//
//   <input>-<target>.stats.json     — the sxe.pass-stats.v1 report with
//                                     timings zeroed (IncludeTimings=false),
//                                     locking the schema and every counter;
//   <input>-<target>.dumps.sxir     — the after-each-pass IR snapshots
//                                     (PassManagerOptions::DumpDir files,
//                                     concatenated in pass order), locking
//                                     the transformation sequence;
//   <input>-<target>.remarks.jsonl  — the sxe.remarks.v1 stream, locking
//                                     the per-extension decisions, theorem
//                                     attribution, and blocking reasons.
//
// Regenerate after an intentional pipeline change with:
//
//   UPDATE_GOLDENS=1 ctest -R golden_file_test
//
//===---------------------------------------------------------------------------===//

#include "obs/Remarks.h"
#include "parser/Parser.h"
#include "pm/InstrumentedPipeline.h"
#include "pm/Report.h"
#include "support/Json.h"
#include "tests/TestHelpers.h"

#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>
#include <unistd.h>

using namespace sxe;

namespace {

bool updateGoldens() {
  const char *Raw = std::getenv("UPDATE_GOLDENS");
  return Raw && Raw[0] && Raw[0] != '0';
}

/// One golden artifact: compare against the checked-in file, or rewrite
/// it when UPDATE_GOLDENS is set.
void checkGolden(const std::string &Path, const std::string &Actual) {
  if (updateGoldens()) {
    ASSERT_TRUE(writeTextFile(Path, Actual)) << "cannot write " << Path;
    return;
  }
  std::string Expected;
  ASSERT_TRUE(readTextFile(Path, Expected)) << Path
                  << " is missing; regenerate with UPDATE_GOLDENS=1";
  EXPECT_EQ(Expected, Actual)
      << Path << " is stale; regenerate with UPDATE_GOLDENS=1 if the "
      << "pipeline change is intentional";
}

struct GoldenCase {
  const char *Stem;   ///< Input file stem under examples/ir/.
  const TargetInfo *Target;
};

void runGoldenCase(const GoldenCase &Case) {
  std::string InputPath =
      std::string(SXE_SOURCE_DIR) + "/examples/ir/" + Case.Stem + ".sxir";
  std::string Text;
  ASSERT_TRUE(readTextFile(InputPath, Text)) << InputPath;

  ParseResult Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;

  PipelineConfig Config =
      PipelineConfig::forVariant(Variant::All, *Case.Target);
  std::string StemTarget = std::string(Case.Stem) + "-" + Case.Target->name();
  std::filesystem::path DumpDir =
      std::filesystem::temp_directory_path() /
      ("sxe-golden-dumps-" + std::to_string(::getpid()) + "-" + StemTarget);
  std::filesystem::remove_all(DumpDir);
  PassManagerOptions Options;
  Options.DumpDir = DumpDir.string();
  Options.CollectRemarks = true;
  InstrumentedPipelineResult Result =
      runInstrumentedPipeline(*Parsed.M, Config, Options);
  ASSERT_TRUE(Result.Ok);

  StatsReportInfo Info;
  Info.ModuleName = Parsed.M->name();
  Info.VariantLabel = variantName(Variant::All);
  Info.TargetName = Case.Target->name();
  Info.IncludeTimings = false; // Deterministic golden mode.
  std::string StatsJson = statsReportJson(Result.Stats, Result.Timings, Info);

  std::string Dumps;
  for (size_t Index = 0; Index < Result.Timings.size(); ++Index) {
    const std::string &Pass = Result.Timings[Index].Name;
    Dumps += "; === after " + Pass + " ===\n" +
             test::readPassDump(DumpDir.string(), Index, Pass);
  }
  std::filesystem::remove_all(DumpDir);

  std::string GoldenDir = std::string(SXE_SOURCE_DIR) + "/tests/golden/";
  checkGolden(GoldenDir + StemTarget + ".stats.json", StatsJson);
  checkGolden(GoldenDir + StemTarget + ".dumps.sxir", Dumps);
  checkGolden(GoldenDir + StemTarget + ".remarks.jsonl",
              remarksToJsonl(Result.Remarks.remarks()));
}

} // namespace

TEST(GoldenFileTest, Figure3IA64) {
  runGoldenCase({"figure3", &TargetInfo::ia64()});
}
TEST(GoldenFileTest, Figure3PPC64) {
  runGoldenCase({"figure3", &TargetInfo::ppc64()});
}
TEST(GoldenFileTest, Figure3Generic64) {
  runGoldenCase({"figure3", &TargetInfo::generic64()});
}
TEST(GoldenFileTest, Figure3X8664) {
  runGoldenCase({"figure3", &TargetInfo::x86_64()});
}
TEST(GoldenFileTest, CountdownIA64) {
  runGoldenCase({"countdown", &TargetInfo::ia64()});
}
TEST(GoldenFileTest, CountdownPPC64) {
  runGoldenCase({"countdown", &TargetInfo::ppc64()});
}
TEST(GoldenFileTest, CountdownGeneric64) {
  runGoldenCase({"countdown", &TargetInfo::generic64()});
}
TEST(GoldenFileTest, CountdownX8664) {
  runGoldenCase({"countdown", &TargetInfo::x86_64()});
}
