//===- pm/Pass.h - Uniform pass interface ------------------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform interface every pipeline phase is wrapped behind, plus the
/// context object threaded through a PassManager run. The context owns:
///
///  - the stat registry (pm/PassStats.h) the SXE_PASS_STAT macro targets;
///  - a per-function AnalysisCache (analysis/AnalysisCache.h), the only
///    source of every phase's CFG, dominators, loops, frequencies, chains
///    and ranges. Invalidation is by the function's mutation epochs, not
///    by pass declarations: a pass that does not change the block
///    structure leaves cfgEpoch() alone and the block-tier analyses
///    survive it automatically;
///  - the inter-pass plumbing the Figure 5 phases hand each other: the
///    list of extensions phase (3)-1 inserted and the elimination order
///    phase (3)-2 chose;
///  - the shared UD/DU chain-creation timer that Table 3 reports as its
///    own column;
///  - the observability sinks (obs/): an optional per-run remark
///    collector the phases stream structured optimization remarks into,
///    and an optional trace collector the manager emits per-pass spans
///    through. Both are null when the run is not being observed.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_PM_PASS_H
#define SXE_PM_PASS_H

#include "analysis/AnalysisCache.h"
#include "pm/PassStats.h"
#include "support/Timer.h"
#include "sxe/Pipeline.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace sxe {

class RemarkCollector;
class TraceCollector;

/// State threaded through one PassManager run over one module.
class PassContext {
public:
  PassContext(const PipelineConfig &Config, PassStats &Stats,
              RemarkCollector *Remarks = nullptr,
              TraceCollector *Trace = nullptr)
      : Config(Config), Stats(&Stats), Remarks(Remarks), Trace(Trace) {}

  PassContext(const PassContext &) = delete;
  PassContext &operator=(const PassContext &) = delete;

  const PipelineConfig &config() const { return Config; }
  PassStats &stats() { return *Stats; }

  /// The optimization-remark sink for this run, or null when remarks are
  /// not being collected. Passes must check before emitting.
  RemarkCollector *remarks() { return Remarks; }

  /// The trace-span sink for this run, or null when tracing is off.
  TraceCollector *trace() { return Trace; }

  /// The shared analysis cache for \p F, created on first request and
  /// configured from this run's PipelineConfig. Analyses rebuild lazily
  /// when the function's mutation epochs move; no explicit invalidation
  /// calls are needed (or exist).
  AnalysisCache &cache(Function &F);

  /// Sum of the analysis-cache counters across every function of the run.
  /// Observability only; not part of the sxe.pass-stats.v1 schema.
  AnalysisCacheStats cacheStats() const;

  /// Extensions inserted into \p F by phase (3)-1 (insertion pass output,
  /// order determination input).
  std::vector<Instruction *> &inserted(Function &F) { return InsertedMap[&F]; }

  /// The elimination order chosen for \p F by phase (3)-2.
  std::vector<Instruction *> &order(Function &F) { return OrderMap[&F]; }

  /// True once an order-determination pass has run over \p F.
  bool hasOrder(Function &F) const { return OrderMap.count(&F) != 0; }

  /// Accumulates UD/DU chain (and range analysis) construction time across
  /// functions; Table 3's "UD/DU chain creation" column.
  Timer &chainTimer() { return ChainTimer; }

private:
  const PipelineConfig &Config;
  PassStats *Stats;
  RemarkCollector *Remarks = nullptr;
  TraceCollector *Trace = nullptr;
  std::unordered_map<Function *, std::unique_ptr<AnalysisCache>> Caches;
  std::unordered_map<Function *, std::vector<Instruction *>> InsertedMap;
  std::unordered_map<Function *, std::vector<Instruction *>> OrderMap;
  Timer ChainTimer;
};

/// A unit of IR transformation or analysis run by the PassManager.
class Pass {
public:
  virtual ~Pass() = default;

  /// Stable machine-readable identifier ("conversion64", "elimination",
  /// ...). Used as the stat-registry owner key, the timer row label, the
  /// snapshot file stem, and the verify-each culprit name.
  virtual const char *name() const = 0;

  /// Runs the pass over one function.
  virtual void run(Function &F, PassContext &Ctx) = 0;

  /// True for passes whose job is to *add* extension instructions
  /// (conversion, insertion); the verify-each extension census exempts
  /// them from its no-regression check.
  virtual bool mayAddExtensions() const { return false; }

  /// Which Table 3 bucket this pass's time belongs to.
  enum class Group : uint8_t {
    Conversion,  ///< Step 1: 32-bit to 64-bit conversion.
    GeneralOpts, ///< Step 2: general optimizations.
    SignExt,     ///< Step 3: the sign-extension phases.
  };
  virtual Group group() const { return Group::SignExt; }
};

} // namespace sxe

#endif // SXE_PM_PASS_H
