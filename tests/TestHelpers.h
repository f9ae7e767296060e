//===- tests/TestHelpers.h - Shared test utilities ----------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//

#ifndef SXE_TESTS_TESTHELPERS_H
#define SXE_TESTS_TESTHELPERS_H

#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/Json.h"

#include <cstdio>
#include <string>
#include <gtest/gtest.h>

namespace sxe {
namespace test {

/// Counts Sext8/16/32 instructions in a block.
inline unsigned countSext(const BasicBlock &BB) {
  unsigned Count = 0;
  for (const Instruction &I : BB)
    Count += I.isSext() ? 1 : 0;
  return Count;
}

/// Counts Sext8/16/32 instructions in a function.
inline unsigned countSext(const Function &F) {
  unsigned Count = 0;
  for (const auto &BB : F.blocks())
    Count += countSext(*BB);
  return Count;
}

/// Counts dummy just_extended markers in a function.
inline unsigned countDummies(const Function &F) {
  unsigned Count = 0;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : *BB)
      Count += I.isDummyExtend() ? 1 : 0;
  return Count;
}

/// gtest assertion that a module verifies cleanly.
inline ::testing::AssertionResult moduleVerifies(const Module &M,
                                                 bool AllowDummies = true) {
  std::vector<std::string> Problems;
  VerifierOptions Options;
  Options.AllowDummyExtends = AllowDummies;
  if (verifyModule(M, Problems, Options))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << Problems.front();
}

/// The IR that PassManagerOptions::DumpDir wrote into \p Dir after the
/// \p Index-th pass, \p PassName (`NN-<pass>.sxir`). Adds a test failure
/// and returns "" when the file is missing.
inline std::string readPassDump(const std::string &Dir, size_t Index,
                                const std::string &PassName) {
  char Prefix[24];
  std::snprintf(Prefix, sizeof(Prefix), "%02zu-", Index);
  std::string Path = Dir + "/" + Prefix + PassName + ".sxir";
  std::string Text;
  if (!readTextFile(Path, Text))
    ADD_FAILURE() << "missing pass dump " << Path;
  return Text;
}

/// The text of `tests/corpus/<Name>.sxir`. Adds a test failure and returns
/// "" when the file is missing.
inline std::string corpusSource(const std::string &Name) {
  std::string Path =
      std::string(SXE_SOURCE_DIR) + "/tests/corpus/" + Name + ".sxir";
  std::string Text;
  if (!readTextFile(Path, Text))
    ADD_FAILURE() << "missing corpus file " << Path;
  return Text;
}

} // namespace test
} // namespace sxe

#endif // SXE_TESTS_TESTHELPERS_H
