//===- sxe/OrderDetermination.h - Elimination order (phase 3-2) --*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase (3)-2: decide the order in which EliminateOneExtend processes the
/// extension instructions. "It is best to eliminate sign extensions
/// starting from the most frequently executed region" (Section 2.2) —
/// blocks are sorted by estimated execution frequency (loop nesting ×
/// branch probabilities, refined by interpreter profiles).
///
/// Within one frequency tier, extensions *inserted* by phase (3)-1 are
/// analyzed before original (definition-site) extensions: inserted
/// extensions sit immediately before uses, so removing them first — when
/// the definition-site extension covers them — keeps the surviving
/// extension at the definition, where it executes once instead of once
/// per use. (Analyzing a definition-site extension first can greedily
/// delete it in favour of several use-site copies at the same loop
/// depth.)
///
/// With order determination disabled, the paper processes extensions "in
/// the reverse depth first search order, the same order in which backward
/// dataflow analysis is performed".
///
//===----------------------------------------------------------------------===//

#ifndef SXE_SXE_ORDERDETERMINATION_H
#define SXE_SXE_ORDERDETERMINATION_H

#include "ir/Function.h"

#include <unordered_set>
#include <vector>

namespace sxe {

class AnalysisCache;

/// Extension instructions of \p A's function ordered hottest-block-first
/// by \p A's block frequencies (which use \p A's profile, if any); within
/// one frequency tier, members of \p Inserted (may be null) come first.
std::vector<Instruction *>
extensionsByFrequency(AnalysisCache &A,
                      const std::unordered_set<Instruction *> *Inserted =
                          nullptr);

/// Extension instructions of \p A's function in reverse depth-first
/// search order of their blocks (latest blocks first, backwards within
/// each block) — the order used when order determination is disabled.
std::vector<Instruction *> extensionsInReverseDFS(AnalysisCache &A);

} // namespace sxe

#endif // SXE_SXE_ORDERDETERMINATION_H
