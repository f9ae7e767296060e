//===- tools/sxe-difftest.cpp - Differential pipeline tester ----------------===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
// Generates seeded random modules and checks every pipeline variant on
// every target against the Java-semantics interpreter oracle. Any failure
// prints a reproduction line carrying the seed; with --reduce, a greedy
// reducer shrinks the failing module and writes minimized .sxir next to
// the report.
//
//   sxe-difftest --seeds=10000 --size=medium --reduce --out=failures
//   sxe-difftest --seed=4217 --size=large          # reproduce one seed
//
//===----------------------------------------------------------------------===//

#include "fuzz/DiffTest.h"
#include "fuzz/RandomModuleGenerator.h"
#include "fuzz/Reducer.h"
#include "ir/IRPrinter.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace sxe;

namespace {

struct ToolOptions {
  uint64_t Seeds = 200;
  uint64_t StartSeed = 1;
  bool SingleSeed = false;
  std::string Size = "medium";
  std::string Unsigned = "on";
  std::vector<const TargetInfo *> Targets;
  uint64_t MaxSteps = 1u << 22;
  bool Native = false;
  bool Reduce = false;
  std::string OutDir;
  bool KeepGoing = false;
  uint64_t ProgressEvery = 0;
  bool Quiet = false;
  bool InjectBug = false; // Hidden: prove the harness catches a miscompile.
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: sxe-difftest [options]\n"
      "  --seeds=N          number of consecutive seeds to test (default 200)\n"
      "  --start-seed=N     first seed (default 1)\n"
      "  --seed=N           test exactly one seed\n"
      "  --size=S           module shape: small | medium | large\n"
      "  --targets=A,B      subset of ia64,ppc64,generic64,x86_64 "
      "(default all)\n"
      "  --unsigned=MODE    unsigned/char constructs: off | on | heavy "
      "(default on)\n"
      "  --max-steps=N      interpreter step budget per run\n"
      "  --native           also run x86_64 pipelines through the native\n"
      "                     code generator and require interpreter parity\n"
      "  --reduce           minimize failing modules with the greedy reducer\n"
      "  --out=DIR          directory for minimized .sxir (default '.')\n"
      "  --keep-going       test all seeds even after a failure\n"
      "  --progress=N       print a progress line every N seeds\n"
      "  --quiet            only print failures and the final summary\n");
}

bool consumeFlag(const char *Arg, const char *Name, const char **Value) {
  size_t Len = std::strlen(Name);
  if (std::strncmp(Arg, Name, Len) != 0)
    return false;
  if (Arg[Len] == '\0' && Value == nullptr)
    return true;
  if (Arg[Len] == '=' && Value != nullptr) {
    *Value = Arg + Len + 1;
    return true;
  }
  return false;
}

bool parseArgs(int Argc, char **Argv, ToolOptions &Options) {
  for (int Index = 1; Index < Argc; ++Index) {
    const char *Arg = Argv[Index];
    const char *Value = nullptr;
    if (consumeFlag(Arg, "--seeds", &Value)) {
      Options.Seeds = std::strtoull(Value, nullptr, 0);
    } else if (consumeFlag(Arg, "--start-seed", &Value)) {
      Options.StartSeed = std::strtoull(Value, nullptr, 0);
    } else if (consumeFlag(Arg, "--seed", &Value)) {
      Options.StartSeed = std::strtoull(Value, nullptr, 0);
      Options.Seeds = 1;
      Options.SingleSeed = true;
    } else if (consumeFlag(Arg, "--size", &Value)) {
      Options.Size = Value;
      if (Options.Size != "small" && Options.Size != "medium" &&
          Options.Size != "large") {
        std::fprintf(stderr, "sxe-difftest: unknown --size '%s'\n", Value);
        return false;
      }
    } else if (consumeFlag(Arg, "--unsigned", &Value)) {
      Options.Unsigned = Value;
      if (Options.Unsigned != "off" && Options.Unsigned != "on" &&
          Options.Unsigned != "heavy") {
        std::fprintf(stderr, "sxe-difftest: unknown --unsigned '%s'\n", Value);
        return false;
      }
    } else if (consumeFlag(Arg, "--targets", &Value)) {
      std::string List = Value;
      size_t Pos = 0;
      while (Pos <= List.size()) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        std::string Name = List.substr(Pos, Comma - Pos);
        const TargetInfo *Target = TargetInfo::byName(Name);
        if (!Target) {
          std::fprintf(stderr, "sxe-difftest: unknown target '%s'\n",
                       Name.c_str());
          return false;
        }
        Options.Targets.push_back(Target);
        Pos = Comma + 1;
      }
    } else if (consumeFlag(Arg, "--max-steps", &Value)) {
      Options.MaxSteps = std::strtoull(Value, nullptr, 0);
    } else if (consumeFlag(Arg, "--out", &Value)) {
      Options.OutDir = Value;
    } else if (consumeFlag(Arg, "--progress", &Value)) {
      Options.ProgressEvery = std::strtoull(Value, nullptr, 0);
    } else if (consumeFlag(Arg, "--native", nullptr)) {
      Options.Native = true;
    } else if (consumeFlag(Arg, "--reduce", nullptr)) {
      Options.Reduce = true;
    } else if (consumeFlag(Arg, "--keep-going", nullptr)) {
      Options.KeepGoing = true;
    } else if (consumeFlag(Arg, "--quiet", nullptr)) {
      Options.Quiet = true;
    } else if (consumeFlag(Arg, "--inject-bug", nullptr)) {
      Options.InjectBug = true;
    } else if (std::strcmp(Arg, "--help") == 0 ||
               std::strcmp(Arg, "-h") == 0) {
      printUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "sxe-difftest: unknown argument '%s'\n", Arg);
      printUsage();
      return false;
    }
  }
  return true;
}

GeneratorOptions shapeForSize(const std::string &Size,
                              const std::string &Unsigned) {
  GeneratorOptions Shape = Size == "small"   ? GeneratorOptions::small()
                           : Size == "large" ? GeneratorOptions::large()
                                             : GeneratorOptions::medium();
  if (Unsigned == "off") {
    Shape.EnableUnsignedOps = false;
    Shape.NumCharArrays = 0;
  } else if (Unsigned == "heavy") {
    Shape.NumCharArrays = Shape.NumCharArrays ? Shape.NumCharArrays * 2 : 2;
  }
  return Shape;
}

/// The hidden miscompile: delete the first retained sign extension in main
/// under the full algorithm on the first target. This is exactly the class
/// of bug the paper's correctness argument rules out, so the harness must
/// flag it (wild address or checksum mismatch) on some seed quickly.
void injectBug(Module &M, Variant V, const TargetInfo &Target) {
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

std::string reproLine(uint64_t Seed, const ToolOptions &Options) {
  std::string Line = "sxe-difftest --seed=" + std::to_string(Seed) +
                     " --size=" + Options.Size;
  if (Options.Unsigned != "on")
    Line += " --unsigned=" + Options.Unsigned;
  if (Options.InjectBug)
    Line += " --inject-bug";
  return Line;
}

/// Reduces a failing module while the harness keeps reporting the same
/// failure status, then writes the minimized text to OutDir.
void reduceAndWrite(const Module &Failing, uint64_t Seed,
                    const DiffConfig &Config, const DiffFailure &Original,
                    const ToolOptions &Options) {
  DiffStatus Wanted = Original.Status;
  ReducerOptions RO;
  ReductionStats Stats;
  auto StillFails = [&](const Module &Candidate) {
    DiffResult R = runDifferentialTest(Candidate, Config);
    return !R.ok() && R.Failure->Status == Wanted;
  };
  std::unique_ptr<Module> Reduced = reduceModule(Failing, StillFails, RO, &Stats);

  std::string Dir = Options.OutDir.empty() ? "." : Options.OutDir;
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::string Path = Dir + "/seed_" + std::to_string(Seed) + ".sxir";
  std::ofstream Out(Path);
  Out << "; " << reproLine(Seed, Options) << "\n";
  Out << "; " << Original.describe() << "\n";
  Out << printModule(*Reduced);
  Out.close();
  std::fprintf(stderr,
               "  reduced %zu -> %zu instructions (%u rounds, %u/%u "
               "candidates accepted), wrote %s\n",
               Stats.OriginalInstructions, Stats.ReducedInstructions,
               Stats.Rounds, Stats.CandidatesAccepted, Stats.CandidatesTried,
               Path.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  ToolOptions Options;
  if (!parseArgs(Argc, Argv, Options))
    return 2;

  GeneratorOptions Shape = shapeForSize(Options.Size, Options.Unsigned);
  DiffConfig Config;
  Config.Targets = Options.Targets;
  Config.MaxSteps = Options.MaxSteps;
  Config.NativeEngine = Options.Native;
  if (Options.InjectBug)
    Config.PostPipelineMutator = injectBug;

  uint64_t Failures = 0, SkippedStepLimit = 0, PipelinesRun = 0,
           NativeRuns = 0;
  for (uint64_t Offset = 0; Offset < Options.Seeds; ++Offset) {
    uint64_t Seed = Options.StartSeed + Offset;
    RandomModuleGenerator Gen(Seed, Shape);
    std::unique_ptr<Module> M = Gen.generate();
    DiffResult Result = runDifferentialTest(*M, Config);
    PipelinesRun += Result.PipelinesRun;
    NativeRuns += Result.NativeRuns;

    if (!Result.ok() &&
        Result.Failure->Status == DiffStatus::OracleStepLimit) {
      // Not a correctness signal: the module is too slow for the budget.
      ++SkippedStepLimit;
      if (!Options.Quiet)
        std::fprintf(stderr, "seed %llu: skipped (%s)\n",
                     static_cast<unsigned long long>(Seed),
                     Result.Failure->describe().c_str());
      continue;
    }

    if (!Result.ok()) {
      ++Failures;
      std::fprintf(stderr, "FAIL seed %llu: %s\n",
                   static_cast<unsigned long long>(Seed),
                   Result.Failure->describe().c_str());
      std::fprintf(stderr, "  reproduce: %s\n",
                   reproLine(Seed, Options).c_str());
      if (Options.Reduce)
        reduceAndWrite(*M, Seed, Config, *Result.Failure, Options);
      if (!Options.KeepGoing)
        break;
    }

    if (Options.ProgressEvery && (Offset + 1) % Options.ProgressEvery == 0 &&
        !Options.Quiet)
      std::fprintf(stderr, "... %llu/%llu seeds, %llu pipeline runs\n",
                   static_cast<unsigned long long>(Offset + 1),
                   static_cast<unsigned long long>(Options.Seeds),
                   static_cast<unsigned long long>(PipelinesRun));
  }

  std::fprintf(stderr,
               "sxe-difftest: %llu seeds, %llu pipeline runs, %llu native "
               "runs, %llu step-limit skips, %llu failures\n",
               static_cast<unsigned long long>(Options.Seeds),
               static_cast<unsigned long long>(PipelinesRun),
               static_cast<unsigned long long>(NativeRuns),
               static_cast<unsigned long long>(SkippedStepLimit),
               static_cast<unsigned long long>(Failures));
  return Failures == 0 ? 0 : 1;
}
