//===- opt/ExtensionPRE.h - PRE-style redundancy removal for extends -*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extension-specific slice of the pipeline's partial-redundancy
/// elimination (Figure 5, step 2; the paper uses a lazy-code-motion
/// variant, references [13,14]). Two transformations:
///
///  - availability CSE: an `r = sextN r` is removed when r is canonically
///    extended on *every* path reaching it (forward all-paths dataflow over
///    "extended since last definition" facts);
///  - loop-invariant hoisting: an `r = sextN r` whose register has no other
///    definition inside its loop is moved to the loop's preheader ("this
///    optimization moves an expression backward in the control flow graph,
///    and thus loop-invariant sign extensions can be moved out of the
///    loop").
///
/// The paper observes that this phase already eliminates some extensions
/// for the *baseline* configuration; our Table 1/2 reproduction shows the
/// same effect because every variant, including baseline, runs it.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_OPT_EXTENSIONPRE_H
#define SXE_OPT_EXTENSIONPRE_H

namespace sxe {

class AnalysisCache;

/// Runs extension CSE + hoisting on \p A's function for \p A's target.
/// Returns the number of extension instructions removed or moved. \p A
/// supplies the CFG, dominators, and loops (hoisting preserves the block
/// graph, so the CSE phase reuses its CFG).
unsigned runExtensionPRE(AnalysisCache &A);

} // namespace sxe

#endif // SXE_OPT_EXTENSIONPRE_H
