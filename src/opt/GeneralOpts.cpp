//===- opt/GeneralOpts.cpp - Step 2 driver ------------------------------------===//

#include "opt/GeneralOpts.h"

#include "analysis/AnalysisCache.h"
#include "opt/DeadCodeElim.h"
#include "opt/ExtensionPRE.h"
#include "opt/LocalOpts.h"
#include "opt/SimplifyCFG.h"

using namespace sxe;

unsigned sxe::runGeneralOpts(AnalysisCache &A) {
  unsigned Total = 0;
  // Two rounds are enough in practice: folding exposes dead code, DCE
  // exposes further folding opportunities once.
  for (unsigned Round = 0; Round < 2; ++Round) {
    unsigned RoundWork = 0;
    RoundWork += runSimplifyCFG(A);
    RoundWork += runLocalOpts(A.function());
    RoundWork += runExtensionPRE(A);
    RoundWork += runDeadCodeElim(A);
    Total += RoundWork;
    if (RoundWork == 0)
      break;
  }
  return Total;
}
