//===- pm/Pass.cpp - Uniform pass interface -----------------------------------===//

#include "pm/Pass.h"

using namespace sxe;

AnalysisCache &PassContext::cache(Function &F) {
  auto &Slot = Caches[&F];
  if (!Slot)
    Slot = std::make_unique<AnalysisCache>(F, *Config.Target, Config.Profile,
                                           Config.MaxArrayLen,
                                           Config.EnableGuardRanges);
  return *Slot;
}

AnalysisCacheStats PassContext::cacheStats() const {
  AnalysisCacheStats Total;
  for (const auto &[F, C] : Caches)
    Total += C->stats();
  return Total;
}
