//===- pm/PassManager.cpp - Instrumented pass sequencing ----------------------===//

#include "pm/PassManager.h"

#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "support/Json.h"
#include "target/StaticCounts.h"

#include <cctype>
#include <cstdio>
#include <filesystem>

using namespace sxe;

Pass *PassManager::add(std::unique_ptr<Pass> P) {
  Passes.push_back(std::move(P));
  return Passes.back().get();
}

/// `NN-<pass>.sxir`, with '/'-unfriendly characters mapped to '-'.
static std::string snapshotFileName(unsigned Index, const std::string &Name) {
  std::string Stem = Name;
  for (char &C : Stem)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '-' && C != '_')
      C = '-';
  char Prefix[8];
  std::snprintf(Prefix, sizeof(Prefix), "%02u-", Index);
  return Prefix + Stem + ".sxir";
}

bool PassManager::run(Module &M, PassContext &Ctx) {
  Failed = false;
  Failure = PassFailure{};
  if (Timings.size() != Passes.size()) {
    Timings.clear();
    for (const auto &P : Passes)
      Timings.push_back(PassTiming{P->name(), P->group(), 0, 0, 0});
  }

  if (!Options.DumpDir.empty())
    std::filesystem::create_directories(Options.DumpDir);

  uint64_t CensusBefore =
      Options.VerifyEach ? countStaticExtensions(M).totalConversions() : 0;

  for (size_t Index = 0; Index < Passes.size(); ++Index) {
    Pass &P = *Passes[Index];
    PassTiming &T = Timings[Index];

    uint64_t WallStart = wallNowNanos();
    uint64_t CpuStart = threadCpuNanos();
    for (const auto &FPtr : M.functions())
      P.run(*FPtr, Ctx); // Cached analyses self-invalidate by epoch.
    uint64_t WallEnd = wallNowNanos();
    T.WallNanos += WallEnd - WallStart;
    T.CpuNanos += threadCpuNanos() - CpuStart;
    T.Runs += 1;

    if (TraceCollector *Trace = Ctx.trace())
      Trace->addSpan(P.name(), "pass", WallStart, WallEnd,
                     {{"module", M.name()}});

    if (!Options.DumpDir.empty())
      writeTextFile(Options.DumpDir + "/" +
                        snapshotFileName(static_cast<unsigned>(Index),
                                         P.name()),
                    printModule(M));

    if (Options.VerifyEach) {
      std::vector<std::string> Problems;
      // Dummy markers are legal between insertion and elimination; the
      // final no-dummies condition is checked by callers on the end state.
      if (!verifyModule(M, Problems)) {
        Failed = true;
        Failure = PassFailure{P.name(), std::move(Problems)};
        return false;
      }
      uint64_t CensusAfter = countStaticExtensions(M).totalConversions();
      if (CensusAfter > CensusBefore && !P.mayAddExtensions()) {
        Failed = true;
        Failure = PassFailure{
            P.name(),
            {"static conversion census regressed: " +
             formatWithCommas(CensusBefore) + " -> " +
             formatWithCommas(CensusAfter) +
             " extensions after a pass not declared to insert any"}};
        return false;
      }
      CensusBefore = CensusAfter;
    }
  }
  return true;
}
