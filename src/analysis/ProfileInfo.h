//===- analysis/ProfileInfo.h - Branch profile data --------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conditional-branch execution counts. The paper's mixed-mode VM gathers
/// these in the bytecode interpreter and hands them to the dynamic
/// compiler to sharpen the branch probabilities used by order
/// determination (Section 2.2). Our interpreter (Java-semantics mode)
/// fills this structure; tests also populate it synthetically.
///
/// Counts are keyed by (function name, instruction id) rather than by
/// pointer: the cloner preserves instruction ids, so a profile collected
/// on the pristine module applies to every per-variant clone.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_ANALYSIS_PROFILEINFO_H
#define SXE_ANALYSIS_PROFILEINFO_H

#include "ir/BasicBlock.h"
#include "ir/Function.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace sxe {

/// Taken/not-taken counts per conditional branch.
class ProfileInfo {
public:
  /// Adds \p Taken executions of \p Branch that went to successor 0 and
  /// \p NotTaken that went to successor 1. The interpreter counts a run's
  /// branches in a dense array and adds each executed branch here once, at
  /// the end of the run, so the string key is built once per branch, not
  /// once per execution.
  void addBranchCounts(const Instruction *Branch, uint64_t Taken,
                       uint64_t NotTaken) {
    auto &Counters = BranchCounts[keyFor(Branch)];
    Counters.Taken += Taken;
    Counters.NotTaken += NotTaken;
  }

  /// Probability that \p Branch goes to successor 0, or nullopt if the
  /// branch was never observed.
  std::optional<double> takenProbability(const Instruction *Branch) const {
    auto It = BranchCounts.find(keyFor(Branch));
    if (It == BranchCounts.end())
      return std::nullopt;
    uint64_t Total = It->second.Taken + It->second.NotTaken;
    if (Total == 0)
      return std::nullopt;
    return static_cast<double>(It->second.Taken) / Total;
  }

  bool empty() const { return BranchCounts.empty(); }

  void clear() { BranchCounts.clear(); }

  /// Order-independent 64-bit digest of the recorded counts. The jit/
  /// code cache folds this into its key so a profile-guided recompile of
  /// a module never hits the entry compiled without (or with a different)
  /// profile.
  uint64_t fingerprint() const {
    std::vector<std::pair<std::string, const Counters *>> Sorted;
    Sorted.reserve(BranchCounts.size());
    for (const auto &KV : BranchCounts)
      Sorted.emplace_back(KV.first, &KV.second);
    std::sort(Sorted.begin(), Sorted.end());
    uint64_t Hash = 0xCBF29CE484222325ull;
    auto Mix = [&Hash](uint64_t Word) {
      for (unsigned Byte = 0; Byte < 8; ++Byte) {
        Hash ^= (Word >> (Byte * 8)) & 0xFF;
        Hash *= 0x100000001B3ull;
      }
    };
    for (const auto &KV : Sorted) {
      for (char C : KV.first)
        Mix(static_cast<unsigned char>(C));
      Mix(KV.second->Taken);
      Mix(KV.second->NotTaken);
    }
    return Hash;
  }

private:
  static std::string keyFor(const Instruction *Branch) {
    return Branch->parent()->parent()->name() + "#" +
           std::to_string(Branch->id());
  }

  struct Counters {
    uint64_t Taken = 0;
    uint64_t NotTaken = 0;
  };
  std::unordered_map<std::string, Counters> BranchCounts;
};

} // namespace sxe

#endif // SXE_ANALYSIS_PROFILEINFO_H
