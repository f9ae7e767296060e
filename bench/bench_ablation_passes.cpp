//===- bench/bench_ablation_passes.cpp - Pass cost ablations --------------------===//
//
// google-benchmark microbenchmarks for the design choices DESIGN.md calls
// out: UD/DU chain construction cost (Table 3's dominant analysis),
// value-range analysis, the elimination engines, and simple vs PDE
// insertion — all swept over synthetic functions of growing size.
//
//===-----------------------------------------------------------------------------===//

#include "analysis/AnalysisCache.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "pm/InstrumentedPipeline.h"
#include "sxe/Conversion64.h"
#include "sxe/Elimination.h"
#include "sxe/FirstAlgorithm.h"
#include "sxe/Insertion.h"
#include "sxe/OrderDetermination.h"
#include "sxe/Pipeline.h"
#include "workloads/Workload.h"

#include <benchmark/benchmark.h>

using namespace sxe;

namespace {

/// Builds a synthetic function with \p NumLoops loops, each performing
/// \p OpsPerLoop array-and-arithmetic operations — the kind of code the
/// pipeline sees from the kernels, scaled.
std::unique_ptr<Module> buildSynthetic(unsigned NumLoops,
                                       unsigned OpsPerLoop) {
  auto M = std::make_unique<Module>("synthetic");
  Function *F = M->createFunction("synth", Type::I32);
  Reg A = F->addParam(Type::ArrayRef, "a");
  Reg N = F->addParam(Type::I32, "n");

  IRBuilder B(F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  Reg One = B.constI32(1);
  Reg Acc = F->newReg(Type::I32, "acc");
  B.copyTo(Acc, Zero);

  for (unsigned LoopIndex = 0; LoopIndex < NumLoops; ++LoopIndex) {
    Reg I = F->newReg(Type::I32, 'i' + std::to_string(LoopIndex));
    B.copyTo(I, Zero);
    BasicBlock *Head =
        F->createBlock("head" + std::to_string(LoopIndex));
    BasicBlock *Body =
        F->createBlock("body" + std::to_string(LoopIndex));
    BasicBlock *Exit =
        F->createBlock("exit" + std::to_string(LoopIndex));
    B.jmp(Head);
    B.setBlock(Head);
    Reg Cond = B.cmp32(CmpPred::SLT, I, N);
    B.br(Cond, Body, Exit);
    B.setBlock(Body);
    Reg Cur = I;
    for (unsigned OpIndex = 0; OpIndex < OpsPerLoop; ++OpIndex) {
      switch (OpIndex % 4) {
      case 0: {
        Reg V = B.arrayLoad(Type::I32, A, Cur);
        B.binopTo(Acc, Opcode::Add, Width::W32, Acc, V);
        break;
      }
      case 1:
        Cur = B.add32(Cur, One);
        break;
      case 2:
        B.arrayStore(Type::I32, A, I, Acc);
        break;
      default:
        Cur = B.and32(Cur, B.constI32(0xFFFF));
        break;
      }
    }
    B.binopTo(I, Opcode::Add, Width::W32, I, One);
    B.jmp(Head);
    B.setBlock(Exit);
  }
  B.ret(Acc);
  return M;
}

/// A converted clone ready for analysis benchmarks.
std::unique_ptr<Module> convertedSynthetic(unsigned NumLoops,
                                           unsigned OpsPerLoop) {
  auto M = buildSynthetic(NumLoops, OpsPerLoop);
  for (const auto &F : M->functions())
    runConversion64(*F, TargetInfo::ia64(), GenPolicy::AfterDef);
  return M;
}

void BM_UseDefChains(benchmark::State &State) {
  auto M = convertedSynthetic(State.range(0), 16);
  Function &F = *M->findFunction("synth");
  for (auto _ : State) {
    CFG Cfg(F);
    UseDefChains Chains(F, Cfg);
    benchmark::DoNotOptimize(&Chains);
  }
  State.SetItemsProcessed(State.iterations() * F.countInstructions());
}
BENCHMARK(BM_UseDefChains)->Arg(4)->Arg(16)->Arg(64);

void BM_ValueRange(benchmark::State &State) {
  auto M = convertedSynthetic(State.range(0), 16);
  Function &F = *M->findFunction("synth");
  CFG Cfg(F);
  UseDefChains Chains(F, Cfg);
  for (auto _ : State) {
    CFG GuardCfg(F); // The guard walk's CFG is part of the timed cost.
    ValueRange Ranges(F, GuardCfg, Chains, TargetInfo::ia64(), 0x7FFFFFFF);
    benchmark::DoNotOptimize(&Ranges);
  }
  State.SetItemsProcessed(State.iterations() * F.countInstructions());
}
BENCHMARK(BM_ValueRange)->Arg(4)->Arg(16)->Arg(64);

void BM_FirstAlgorithm(benchmark::State &State) {
  auto Pristine = convertedSynthetic(State.range(0), 16);
  for (auto _ : State) {
    State.PauseTiming();
    auto Clone = cloneModule(*Pristine);
    Function &F = *Clone->findFunction("synth");
    State.ResumeTiming();
    AnalysisCache A(F, TargetInfo::ia64());
    runFirstAlgorithm(A);
  }
}
BENCHMARK(BM_FirstAlgorithm)->Arg(4)->Arg(16)->Arg(64);

void BM_EliminationUdDu(benchmark::State &State) {
  auto Pristine = convertedSynthetic(State.range(0), 16);
  for (auto _ : State) {
    State.PauseTiming();
    auto Clone = cloneModule(*Pristine);
    Function &F = *Clone->findFunction("synth");
    insertDummyExtends(F);
    std::vector<Instruction *> Order;
    {
      AnalysisCache OrderCache(F, TargetInfo::ia64());
      Order = extensionsInReverseDFS(OrderCache);
    }
    State.ResumeTiming();
    // A fresh cache, so the timed region builds the CFG, chains and
    // ranges the elimination reads.
    AnalysisCache A(F, TargetInfo::ia64());
    EliminationOptions Options;
    Options.EnableArrayTheorems = true;
    runElimination(A, Order, Options);
  }
}
BENCHMARK(BM_EliminationUdDu)->Arg(4)->Arg(16)->Arg(64);

void BM_SimpleInsertion(benchmark::State &State) {
  auto Pristine = convertedSynthetic(16, 16);
  for (auto _ : State) {
    State.PauseTiming();
    auto Clone = cloneModule(*Pristine);
    Function &F = *Clone->findFunction("synth");
    State.ResumeTiming();
    AnalysisCache A(F, TargetInfo::ia64());
    runSimpleInsertion(A);
  }
}
BENCHMARK(BM_SimpleInsertion);

void BM_PDEInsertion(benchmark::State &State) {
  auto Pristine = convertedSynthetic(16, 16);
  for (auto _ : State) {
    State.PauseTiming();
    auto Clone = cloneModule(*Pristine);
    Function &F = *Clone->findFunction("synth");
    State.ResumeTiming();
    AnalysisCache A(F, TargetInfo::ia64());
    runPDEInsertion(A);
  }
}
BENCHMARK(BM_PDEInsertion);

void BM_FullPipelineAll(benchmark::State &State) {
  WorkloadParams Params;
  auto Pristine = buildNumericSort(Params);
  for (auto _ : State) {
    State.PauseTiming();
    auto Clone = cloneModule(*Pristine);
    State.ResumeTiming();
    runInstrumentedPipeline(*Clone, PipelineConfig::forVariant(Variant::All));
  }
}
BENCHMARK(BM_FullPipelineAll);

} // namespace

BENCHMARK_MAIN();
