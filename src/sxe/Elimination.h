//===- sxe/Elimination.h - UD/DU-chain elimination (phase 3-3) ---*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase (3)-3: the paper's EliminateOneExtend / AnalyzeUSE / AnalyzeDEF /
/// AnalyzeARRAY, processed in the order chosen by phase (3)-2. For each
/// extension EXT of a register:
///
///  1. AnalyzeUSE walks the DU chain of EXT's value. A use is harmless if
///     it never reads the bits EXT fixes (Case 1); array effective
///     addresses are handed to AnalyzeARRAY; W32 arithmetic passes the
///     question through to its own uses (Case 2, clearing the
///     ANALYZE_ARRAY capability when the theorems cannot model the
///     address through the operation); everything else requires EXT.
///  2. If some use requires it, AnalyzeDEF walks the UD chain of EXT's
///     source: EXT is still removable when every reaching definition
///     already produces a sign-extended value.
///  3. AnalyzeARRAY applies Theorems 1-4 (Section 3): a subscript needs no
///     extension when it is already extended, has a zero upper half
///     (Theorem 1; IA64 loads zero-extend), or is an i+j / i-j whose parts
///     are extended with one part bounded below by (maxlen-1)-0x7fffffff
///     (Theorems 2/4) or an i-j with i zero-upper and 0 <= j (Theorem 3).
///     The bounds check itself guarantees LS(e) (the language throws on a
///     negative index, and 32-bit compares make the check extension-free).
///
/// The same algorithm runs over the whole conversion family: for a zero
/// extension (zext8/16/32) or truncation (trunc32) the def-side question
/// becomes "already zero-extended at the conversion's width" instead of
/// "already sign-extended"; the use side (Cases 1 and 2 and AnalyzeARRAY)
/// is kind-independent, since both kinds only rewrite bits above the
/// conversion width.
///
/// Extension-state questions ("already sign-extended at W", "already
/// zero-extended at W") are answered by live UD-chain traversals against
/// the *current* IR — with the conversion under analysis masked out, so no
/// elimination ever justifies itself — while value ranges come from the
/// stable lower-32-bit range analysis (analysis/ValueRange.h).
///
//===----------------------------------------------------------------------===//

#ifndef SXE_SXE_ELIMINATION_H
#define SXE_SXE_ELIMINATION_H

#include "ir/Function.h"
#include "support/Timer.h"

#include <cstdint>
#include <vector>

namespace sxe {

class AnalysisCache;
class RemarkCollector;

/// Configuration of the elimination phase. The target, the array-length
/// limit and the guard toggle are the AnalysisCache's.
struct EliminationOptions {
  bool EnableArrayTheorems = false;
  /// Ablation toggle: the inductive add/sub/mul rule in the live
  /// extendedness query (DESIGN.md decision 5).
  bool EnableInductiveArith = true;
  /// When set, accumulates the UD/DU chain (and range analysis) build
  /// time, reported separately in Table 3 ("UD/DU chain creation").
  Timer *ChainTimer = nullptr;
  /// When set, the phase emits one structured remark per analyzed
  /// extension (obs/Remarks.h): the decision, the analysis that proved
  /// it, the per-extension theorem attribution, and for retained
  /// extensions the blocking instruction. The theorem fields of a
  /// module's remarks sum to the matching EliminationStats counters.
  RemarkCollector *Remarks = nullptr;
};

/// Counters reported by the elimination phase.
struct EliminationStats {
  unsigned Analyzed = 0;
  unsigned Eliminated = 0;
  unsigned EliminatedSext = 0;      ///< Of which sign extensions.
  unsigned EliminatedZext = 0;      ///< Of which zero extensions.
  unsigned EliminatedTrunc = 0;     ///< Of which trunc32 narrowings.
  unsigned EliminatedViaUses = 0;   ///< No use needed the extension.
  unsigned EliminatedViaDefs = 0;   ///< Source already extended.
  unsigned ArrayUsesProven = 0;     ///< AnalyzeARRAY successes.
  unsigned DummiesRemoved = 0;
  // Which Section 3 argument discharged an array subscript definition.
  unsigned SubscriptExtended = 0;   ///< Already sign-extended + LS.
  unsigned SubscriptTheorem1 = 0;   ///< Upper half zero.
  unsigned SubscriptTheorem2 = 0;   ///< i+j, one part >= 0.
  unsigned SubscriptTheorem3 = 0;   ///< i-j, i zero-upper, j >= 0.
  unsigned SubscriptTheorem4 = 0;   ///< i+j, maxlen-derived bound < 0.
};

/// Runs EliminateOneExtend over the extensions of \p A's function in the
/// given \p Order (from sxe/OrderDetermination.h), then removes the dummy
/// markers. Entries in \p Order must be extension instructions of that
/// function. The UD/DU chains and value ranges come from \p A; the phase
/// splices the cached chains as it eliminates, and each splice
/// accompanies an IR mutation, so the snapshot epoch-invalidates before
/// any later consumer reads it.
EliminationStats runElimination(AnalysisCache &A,
                                const std::vector<Instruction *> &Order,
                                const EliminationOptions &Options);

} // namespace sxe

#endif // SXE_SXE_ELIMINATION_H
