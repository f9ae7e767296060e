//===- analysis/BlockFrequency.h - Execution frequency estimate --*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static execution-frequency estimation, Section 2.2: "For each basic
/// block B, this can be estimated from both the loop nesting level of B and
/// the execution frequency of B within its acyclic region based on the
/// probability of each conditional branch." Branch probabilities default to
/// 1/2 and are replaced by interpreter profile data when available.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_ANALYSIS_BLOCKFREQUENCY_H
#define SXE_ANALYSIS_BLOCKFREQUENCY_H

#include "analysis/CFG.h"
#include "analysis/LoopInfo.h"
#include "analysis/ProfileInfo.h"

#include <vector>

namespace sxe {

/// Estimated relative execution frequency per basic block.
class BlockFrequency {
public:
  /// Multiplier applied per loop nesting level.
  static constexpr double LoopScale = 10.0;

  BlockFrequency(const CFG &Cfg, const LoopInfo &Loops,
                 const ProfileInfo *Profile = nullptr);

  /// Relative frequency of \p BB; the entry block has frequency 1.
  double frequency(const BasicBlock *BB) const;

private:
  /// Indexed by dense block number; 0.0 for unreachable blocks.
  std::vector<double> Freq;
};

} // namespace sxe

#endif // SXE_ANALYSIS_BLOCKFREQUENCY_H
