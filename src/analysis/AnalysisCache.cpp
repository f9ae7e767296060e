//===- analysis/AnalysisCache.cpp - Shared per-function analyses ------------===//

#include "analysis/AnalysisCache.h"

using namespace sxe;

void AnalysisCache::validateBlockTier() {
  if (BlockTierEpoch == F.cfgEpoch())
    return;
  // Destruction order mirrors the dependency chain.
  Freq.reset();
  Loops.reset();
  Dom.reset();
  Cfg.reset();
  BlockTierEpoch = F.cfgEpoch();
}

void AnalysisCache::validateInstTier() {
  if (InstTierEpoch == F.irEpoch())
    return;
  Ranges.reset(); // Holds a reference into Chains; dies first.
  Chains.reset();
  InstTierEpoch = F.irEpoch();
}

const CFG &AnalysisCache::cfg() {
  validateBlockTier();
  if (!Cfg) {
    Cfg = std::make_unique<CFG>(F);
    ++Stats.CfgBuilds;
  } else {
    ++Stats.CfgHits;
  }
  return *Cfg;
}

const Dominators &AnalysisCache::dominators() {
  const CFG &C = cfg();
  if (!Dom) {
    Dom = std::make_unique<Dominators>(C);
    ++Stats.DomBuilds;
  } else {
    ++Stats.DomHits;
  }
  return *Dom;
}

const LoopInfo &AnalysisCache::loops() {
  const Dominators &D = dominators();
  if (!Loops) {
    Loops = std::make_unique<LoopInfo>(*Cfg, D);
    ++Stats.LoopBuilds;
  } else {
    ++Stats.LoopHits;
  }
  return *Loops;
}

const BlockFrequency &AnalysisCache::frequencies() {
  const LoopInfo &L = loops();
  if (!Freq) {
    Freq = std::make_unique<BlockFrequency>(*Cfg, L, Profile);
    ++Stats.FreqBuilds;
  } else {
    ++Stats.FreqHits;
  }
  return *Freq;
}

UseDefChains &AnalysisCache::chains() {
  validateInstTier();
  if (!Chains) {
    Chains = std::make_unique<UseDefChains>(F, cfg());
    ++Stats.ChainBuilds;
  } else {
    ++Stats.ChainHits;
  }
  return *Chains;
}

ValueRange &AnalysisCache::ranges() {
  UseDefChains &C = chains(); // Validates the tier and pins the snapshot.
  if (!Ranges) {
    Ranges = std::make_unique<ValueRange>(F, cfg(), C, Target, MaxArrayLen,
                                          UseGuards);
    ++Stats.RangeBuilds;
  } else {
    ++Stats.RangeHits;
  }
  return *Ranges;
}
