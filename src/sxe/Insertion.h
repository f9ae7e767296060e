//===- sxe/Insertion.h - Sign extension insertion (phase 3-1) ----*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase (3)-1 of the paper's algorithm: before eliminating, *insert*
/// extensions so that the combination "moves sign extensions to less
/// frequently executed regions, and particularly out of loops":
///
///  - Simple insertion: an extend is placed immediately before every
///    instruction that requires one, "unless its variable is obviously
///    sign-extended" (a cheap local check). Applied "only to those methods
///    which include a loop" to balance compilation time.
///  - PDE-variant insertion (the measured "all, using PDE" reference): a
///    variant of Knoop-Rüthing-Steffen partial dead code elimination that
///    sinks *existing* extensions to their latest use points. It only
///    places an extend before a requiring use when every definition
///    reaching that use is already an extension of the register (sinking
///    never lengthens a path), which is why it misses Figure 15's diamond.
///  - Dummy insertion: after every array access, a `just_extended` marker
///    records that the index register is known sign-extended — "unless an
///    array index is overwritten immediately, as in i = a[i]". Dummies are
///    consumed by the elimination phase and removed afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_SXE_INSERTION_H
#define SXE_SXE_INSERTION_H

#include "ir/Function.h"

namespace sxe {

class AnalysisCache;

/// Runs simple insertion over \p A's function for \p A's target (only
/// when \p A's loops say the function contains one). Returns the number
/// of extensions inserted; the new instructions are appended to
/// \p Inserted when non-null (order determination gives them elimination
/// priority within a frequency tier).
unsigned runSimpleInsertion(AnalysisCache &A,
                            std::vector<Instruction *> *Inserted = nullptr);

/// Runs the PDE-variant insertion over \p A's function for \p A's target.
/// Returns the number of extensions inserted (appended to \p Inserted
/// when non-null). The planning phase reads \p A's UD/DU chains.
unsigned runPDEInsertion(AnalysisCache &A,
                         std::vector<Instruction *> *Inserted = nullptr);

/// Inserts dummy just_extended markers after array accesses. Returns the
/// number of dummies inserted.
unsigned insertDummyExtends(Function &F);

} // namespace sxe

#endif // SXE_SXE_INSERTION_H
