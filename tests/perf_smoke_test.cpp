//===- tests/perf_smoke_test.cpp - Compile-time scalability smoke ---------------===//
//
// Guards the compile-time overhaul's two load-bearing properties on
// inputs big enough to notice (random ~5000-instruction functions):
//
//  - the shared AnalysisCache builds each analysis at most once per
//    invalidation epoch: repeat queries hit, unrelated mutations don't
//    cascade (an instruction insert leaves the block tier valid), and a
//    full pipeline run never builds an analysis more often than the
//    function's epoch counters could justify;
//  - the full pipeline over such a function stays verifier-clean, so the
//    scalability machinery (dense numbering, arena storage, epoch
//    invalidation) is exercised well past the sizes the golden tests
//    cover.
//
//===-----------------------------------------------------------------------------===//

#include "analysis/AnalysisCache.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "pm/InstrumentedPipeline.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace sxe;

namespace {

/// Builds one random function of roughly \p TargetInsts instructions: a
/// chain of diamonds (branch, two arithmetic arms, join) whose arms mix
/// 32-bit arithmetic, narrowing truncate-extend pairs, and array traffic
/// — enough extension pressure to keep every pipeline phase busy. The
/// join blocks jump forward, so the function also has blocks SimplifyCFG
/// wants to merge.
std::unique_ptr<Module> buildLargeModule(uint64_t Seed,
                                         unsigned TargetInsts) {
  auto M = std::make_unique<Module>("perf_smoke");
  Function *F = M->createFunction("big", Type::I32);
  Reg N = F->addParam(Type::I32, "n");
  Reg A = F->addParam(Type::ArrayRef, "a");

  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(F, Entry);
  RNG R(Seed);

  Reg Acc = F->newReg(Type::I32, "acc");
  B.copyTo(Acc, N);
  Reg Mask = B.constI32(63);
  Reg One = B.constI32(1);

  unsigned Emitted = 0;
  while (Emitted < TargetInsts) {
    // One diamond: cond, then/else arms of random arithmetic, join.
    BasicBlock *Then = F->createBlock("t");
    BasicBlock *Else = F->createBlock("e");
    BasicBlock *Join = F->createBlock("j");

    Reg C = B.cmp32(CmpPred::SGT, Acc, One);
    B.br(C, Then, Else);

    for (BasicBlock *Arm : {Then, Else}) {
      B.setBlock(Arm);
      unsigned ArmLen = 8 + static_cast<unsigned>(R.nextBelow(16));
      for (unsigned I = 0; I < ArmLen; ++I) {
        switch (R.nextBelow(5)) {
        case 0:
          B.binopTo(Acc, Opcode::Add, Width::W32, Acc, One);
          break;
        case 1:
          B.binopTo(Acc, Opcode::Xor, Width::W32, Acc, Mask);
          break;
        case 2: // Narrow + re-extend: elimination fodder.
          B.binopTo(Acc, Opcode::And, Width::W32, Acc, Mask);
          B.sextTo(Acc, 8, Acc);
          break;
        case 3: { // Masked array traffic keeps the theorems engaged.
          Reg Idx = B.and32(Acc, Mask);
          Reg V = B.arrayLoad(Type::I32, A, Idx);
          B.binopTo(Acc, Opcode::Add, Width::W32, Acc, V);
          break;
        }
        default:
          B.binopTo(Acc, Opcode::Sub, Width::W32, Acc, One);
          break;
        }
      }
      Emitted += ArmLen;
      B.jmp(Join);
    }
    B.setBlock(Join);
  }
  B.ret(Acc);
  return M;
}

TEST(PerfSmokeTest, CacheBuildsEachAnalysisOncePerEpoch) {
  auto M = buildLargeModule(/*Seed=*/1, /*TargetInsts=*/5000);
  Function &F = *M->functions().front();
  ASSERT_GE(F.numberInstructions().NumInsts, 5000u);

  AnalysisCache Cache(F, TargetInfo::ia64());

  // Repeat queries of a clean function: exactly one build each.
  for (int Round = 0; Round < 3; ++Round) {
    Cache.cfg();
    Cache.dominators();
    Cache.loops();
    Cache.frequencies();
    Cache.chains();
    Cache.ranges();
  }
  EXPECT_EQ(Cache.stats().CfgBuilds, 1u);
  EXPECT_EQ(Cache.stats().DomBuilds, 1u);
  EXPECT_EQ(Cache.stats().LoopBuilds, 1u);
  EXPECT_EQ(Cache.stats().FreqBuilds, 1u);
  EXPECT_EQ(Cache.stats().ChainBuilds, 1u);
  EXPECT_EQ(Cache.stats().RangeBuilds, 1u);
  EXPECT_GE(Cache.stats().CfgHits, 2u);

  // An instruction-level mutation invalidates only the instruction tier.
  BasicBlock *Entry = F.entryBlock();
  Reg Tmp = F.newReg(Type::I32, "tmp");
  Instruction *Nop = F.newInstruction(Opcode::Copy);
  Nop->setDest(Tmp);
  Nop->addOperand(Tmp);
  Entry->insertBefore(&*Entry->begin(), Nop);

  Cache.cfg();
  Cache.chains();
  Cache.ranges();
  Cache.chains();
  EXPECT_EQ(Cache.stats().CfgBuilds, 1u) << "block tier must survive";
  EXPECT_EQ(Cache.stats().ChainBuilds, 2u);
  EXPECT_EQ(Cache.stats().RangeBuilds, 2u);

  // A block-level mutation invalidates both tiers — once.
  BasicBlock *Orphan = F.createBlock("orphan");
  (void)Orphan;
  for (int Round = 0; Round < 2; ++Round) {
    Cache.cfg();
    Cache.loops();
    Cache.chains();
  }
  EXPECT_EQ(Cache.stats().CfgBuilds, 2u);
  EXPECT_EQ(Cache.stats().LoopBuilds, 2u);
  EXPECT_EQ(Cache.stats().ChainBuilds, 3u);
}

TEST(PerfSmokeTest, PipelineBuildCountsBoundedByEpochs) {
  auto M = buildLargeModule(/*Seed=*/2, /*TargetInsts=*/5000);
  Function &F = *M->functions().front();

  PipelineConfig Config;
  Config.EnableArrayTheorems = true;

  PassManager PM;
  buildPipelinePasses(PM, Config);
  PassStats Stats;
  PassContext Ctx(Config, Stats);
  ASSERT_TRUE(PM.run(*M, Ctx));

  std::vector<std::string> Problems;
  EXPECT_TRUE(verifyModule(*M, Problems))
      << "pipeline broke a 5k-instruction module: "
      << (Problems.empty() ? "" : Problems.front());

  // Each analysis can rebuild at most once per epoch its tier keys on,
  // whatever the pass mix does. The epoch counters only ever advance, so
  // their final values bound the number of invalidation points.
  AnalysisCacheStats CS = Ctx.cacheStats();
  EXPECT_GE(CS.CfgBuilds, 1u);
  EXPECT_GE(CS.ChainBuilds, 1u);
  EXPECT_LE(CS.CfgBuilds, F.cfgEpoch());
  EXPECT_LE(CS.DomBuilds, F.cfgEpoch());
  EXPECT_LE(CS.LoopBuilds, F.cfgEpoch());
  EXPECT_LE(CS.FreqBuilds, F.cfgEpoch());
  EXPECT_LE(CS.ChainBuilds, F.irEpoch());
  EXPECT_LE(CS.RangeBuilds, F.irEpoch());
  // The sharing must actually pay: consumers outnumber constructions.
  EXPECT_GT(CS.CfgHits, CS.CfgBuilds);
}

} // namespace
