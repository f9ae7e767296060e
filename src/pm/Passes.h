//===- pm/Passes.h - Pass wrappers for the pipeline phases -------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wraps every existing phase behind the uniform Pass interface with named
/// counters (pm/PassStats.h):
///
///   conversion64        sext_generated
///   general-opts        rewrites
///   dummy-insertion     dummy_added
///   insertion           sext_inserted, pde_variant
///   order-determination extensions_ordered, by_frequency
///   elimination         analyzed, sext_eliminated, zext_eliminated,
///                       trunc_eliminated, eliminated_via_uses,
///                       eliminated_via_defs, array_uses_proven,
///                       dummy_removed, subscript_extended,
///                       theorem1_fired .. theorem4_fired
///   first-algorithm     sext_eliminated
///
/// Every wrapper reads its analyses and target from the context's
/// per-function AnalysisCache (PassContext::cache).
///
//===----------------------------------------------------------------------===//

#ifndef SXE_PM_PASSES_H
#define SXE_PM_PASSES_H

#include "pm/Pass.h"
#include "sxe/Conversion64.h"

#include <memory>

namespace sxe {

/// Step 1: 32-bit to 64-bit conversion under the configured GenPolicy.
std::unique_ptr<Pass> createConversion64Pass(GenPolicy Policy);

/// Step 2: the general-optimization driver (CFG cleanup, local folding,
/// extension PRE and dead code elimination to a fixpoint).
std::unique_ptr<Pass> createGeneralOptsPass();

/// Phase (3)-1a: dummy just_extended markers after array accesses.
std::unique_ptr<Pass> createDummyInsertionPass();

/// Phase (3)-1b: extension insertion (simple, or the PDE reference
/// variant); records the inserted instructions in the PassContext.
std::unique_ptr<Pass> createInsertionPass(bool UsePDE);

/// Phase (3)-2: chooses the elimination order (hottest-first when
/// \p ByFrequency, otherwise reverse DFS) into the PassContext.
std::unique_ptr<Pass> createOrderDeterminationPass(bool ByFrequency);

/// Phase (3)-3: EliminateOneExtend over the chosen order, then dummy
/// removal. Uses the context's chain timer for the Table 3 split.
std::unique_ptr<Pass> createEliminationPass();

/// The authors' first algorithm (backward dataflow elimination).
std::unique_ptr<Pass> createFirstAlgorithmPass();

} // namespace sxe

#endif // SXE_PM_PASSES_H
