//===- pm/PassManager.h - Instrumented pass sequencing -----------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a sequence of passes over a module with uniform instrumentation:
///
///  - per-pass wall and thread-CPU timers (the Table 3 reproduction
///    consumes these instead of re-measuring around the whole pipeline);
///  - an optional verify-between-passes mode that runs the IR verifier
///    plus a no-regression static-extension census after every pass and
///    names the offending pass on failure;
///  - an optional IR snapshot mode that writes the module's textual form
///    after every pass to `NN-<pass>.sxir` files in a directory, for
///    golden-file tests and `--dump-after-each`.
///
/// Every pass is function-local, so the manager iterates passes in the
/// outer loop and functions in the inner loop; the final module is
/// identical to a function-outer schedule, and "the module after pass P"
/// becomes a well-defined snapshot point.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_PM_PASSMANAGER_H
#define SXE_PM_PASSMANAGER_H

#include "pm/Pass.h"

#include <memory>
#include <string>
#include <vector>

namespace sxe {

/// Wall/CPU cost of one pass over the whole module (accumulated across
/// repeated manager runs).
struct PassTiming {
  std::string Name;
  Pass::Group Group = Pass::Group::SignExt;
  uint64_t WallNanos = 0;
  uint64_t CpuNanos = 0;
  unsigned Runs = 0;
};

/// Verify-each diagnosis: which pass broke the module, and how.
struct PassFailure {
  std::string PassName;
  std::vector<std::string> Problems;
};

struct PassManagerOptions {
  /// Run the verifier + extension census after every pass.
  bool VerifyEach = false;
  /// When non-empty, write printModule() after every pass to
  /// `DIR/NN-<pass>.sxir` (the directory is created).
  std::string DumpDir;
  /// When set, the manager emits one "pass" span per pass execution into
  /// this collector (and runInstrumentedPipeline threads it into the
  /// PassContext so phases can add finer-grained spans).
  TraceCollector *Trace = nullptr;
  /// Collect structured optimization remarks (obs/Remarks.h) during the
  /// run; runInstrumentedPipeline exposes them on its result.
  bool CollectRemarks = false;
};

/// Sequences passes over a module with timing, verification, and snapshot
/// instrumentation.
class PassManager {
public:
  explicit PassManager(PassManagerOptions Options = {})
      : Options(std::move(Options)) {}

  /// Appends \p P to the pipeline and returns it (for tests that keep a
  /// handle on an injected pass).
  Pass *add(std::unique_ptr<Pass> P);

  /// Runs every pass over every function of \p M. Returns false when
  /// verify-each found a problem; failure() then names the pass.
  bool run(Module &M, PassContext &Ctx);

  const std::vector<PassTiming> &timings() const { return Timings; }
  const PassFailure *failure() const { return Failed ? &Failure : nullptr; }

private:
  PassManagerOptions Options;
  std::vector<std::unique_ptr<Pass>> Passes;
  std::vector<PassTiming> Timings;
  PassFailure Failure;
  bool Failed = false;
};

} // namespace sxe

#endif // SXE_PM_PASSMANAGER_H
