//===- analysis/AnalysisCache.h - Shared per-function analyses ---*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lazy, epoch-validated analysis cache one function shares across
/// passes. Every analysis lives in one of two invalidation tiers keyed to
/// the function's mutation counters (ir/Function.h):
///
///  - block tier (CFG, dominators, loops, block frequencies): stale only
///    when the block graph changes, i.e. when cfgEpoch() moves. Inserting
///    or erasing instructions inside a block leaves this tier valid.
///  - instruction tier (UD/DU chains, value ranges): stale whenever the
///    instruction stream changes at all, i.e. when irEpoch() moves,
///    because the chain and range tables are indexed by the dense
///    instruction numbers of Function::numberInstructions().
///
/// Accessors rebuild the requested analysis (and nothing else) when its
/// tier is stale, so a sequence like SimplifyCFG -> DCE -> elimination
/// builds each analysis once per mutation epoch instead of once per
/// consumer. The per-cache counters in AnalysisCacheStats make that
/// property testable; they are deliberately *not* part of the PassStats
/// registry so the sxe.pass-stats.v1 golden output is unaffected.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_ANALYSIS_ANALYSISCACHE_H
#define SXE_ANALYSIS_ANALYSISCACHE_H

#include "analysis/BlockFrequency.h"
#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "analysis/UseDefChains.h"
#include "analysis/ValueRange.h"

#include <cstdint>
#include <memory>

namespace sxe {

/// Build/hit counters of one AnalysisCache (or, summed, of a whole run).
/// "Builds" counts constructions, "Hits" returns of a still-valid object;
/// a correct pipeline keeps Builds at one per invalidation epoch however
/// many consumers query.
struct AnalysisCacheStats {
  uint64_t CfgBuilds = 0, CfgHits = 0;
  uint64_t DomBuilds = 0, DomHits = 0;
  uint64_t LoopBuilds = 0, LoopHits = 0;
  uint64_t FreqBuilds = 0, FreqHits = 0;
  uint64_t ChainBuilds = 0, ChainHits = 0;
  uint64_t RangeBuilds = 0, RangeHits = 0;

  AnalysisCacheStats &operator+=(const AnalysisCacheStats &O) {
    CfgBuilds += O.CfgBuilds;
    CfgHits += O.CfgHits;
    DomBuilds += O.DomBuilds;
    DomHits += O.DomHits;
    LoopBuilds += O.LoopBuilds;
    LoopHits += O.LoopHits;
    FreqBuilds += O.FreqBuilds;
    FreqHits += O.FreqHits;
    ChainBuilds += O.ChainBuilds;
    ChainHits += O.ChainHits;
    RangeBuilds += O.RangeBuilds;
    RangeHits += O.RangeHits;
    return *this;
  }
};

/// Lazily built, epoch-validated analyses for one function.
///
/// The configuration (target, profile, array-length limit, guard toggle)
/// is fixed at construction. Every pipeline phase takes its analyses and
/// that configuration from the cache, so there is one owner of each
/// analysis and one place its parameters are set: the pass pipeline
/// constructs the cache from its PipelineConfig (PassContext::cache).
class AnalysisCache {
public:
  explicit AnalysisCache(Function &F, const TargetInfo &Target,
                         const ProfileInfo *Profile = nullptr,
                         uint32_t MaxArrayLen = 0x7FFFFFFF,
                         bool UseGuards = true)
      : F(F), Target(Target), Profile(Profile), MaxArrayLen(MaxArrayLen),
        UseGuards(UseGuards) {}

  AnalysisCache(const AnalysisCache &) = delete;
  AnalysisCache &operator=(const AnalysisCache &) = delete;

  Function &function() const { return F; }
  const TargetInfo &target() const { return Target; }

  // Block tier — valid while cfgEpoch() is unchanged.
  const CFG &cfg();
  const Dominators &dominators();
  const LoopInfo &loops();
  const BlockFrequency &frequencies();

  // Instruction tier — valid while irEpoch() is unchanged. chains() and
  // ranges() share one snapshot: both reset together, and ranges() is
  // always built over this cache's chains() and cfg(). The chains are
  // returned mutable because the eliminator splices them incrementally;
  // each splice accompanies an IR mutation, so the snapshot invalidates
  // before any later consumer can observe the spliced state.
  UseDefChains &chains();
  ValueRange &ranges();

  const AnalysisCacheStats &stats() const { return Stats; }

private:
  void validateBlockTier();
  void validateInstTier();

  Function &F;
  const TargetInfo &Target;
  const ProfileInfo *Profile;
  uint32_t MaxArrayLen;
  bool UseGuards;

  uint64_t BlockTierEpoch = 0; ///< cfgEpoch() the block tier was built at.
  uint64_t InstTierEpoch = 0;  ///< irEpoch() the inst tier was built at.

  std::unique_ptr<CFG> Cfg;
  std::unique_ptr<Dominators> Dom;
  std::unique_ptr<LoopInfo> Loops;
  std::unique_ptr<BlockFrequency> Freq;
  std::unique_ptr<UseDefChains> Chains;
  std::unique_ptr<ValueRange> Ranges;

  AnalysisCacheStats Stats;
};

} // namespace sxe

#endif // SXE_ANALYSIS_ANALYSISCACHE_H
