//===- examples/quickstart.cpp - The paper's running example, end to end -------===//
//
// Builds Figure 7(a) of the paper in sxe IR, compiles it with the
// baseline and with the full new algorithm, and shows what the paper's
// Figure 8(b) promises: every sign extension leaves the loop, and exactly
// one survives in front of the (double) conversion.
//
// Run:  ./quickstart
//
//===--------------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "pm/InstrumentedPipeline.h"
#include "sxe/Pipeline.h"
#include "target/StaticCounts.h"

#include <cstdio>

using namespace sxe;

namespace {

/// Figure 7(a):
///   int t = 0; int i = src[0];
///   do { i = i - 1; j = a[i]; j &= 0x0fffffff; t += j; } while (i > start);
///   return (double) t;
std::unique_ptr<Module> buildExample() {
  auto M = std::make_unique<Module>("quickstart");

  Function *F = M->createFunction("fig7", Type::F64);
  Reg Src = F->addParam(Type::ArrayRef, "src");
  Reg A = F->addParam(Type::ArrayRef, "a");
  Reg Start = F->addParam(Type::I32, "start");
  {
    IRBuilder B(F);
    B.startBlock("entry");
    Reg Zero = B.constI32(0, "zero");
    Reg I = B.arrayLoad(Type::I32, Src, Zero, "i");
    Reg T = B.copy(Zero, "t");
    Reg One = B.constI32(1, "one");
    Reg C = B.constI32(0x0FFFFFFF, "C");
    BasicBlock *Loop = F->createBlock("loop");
    BasicBlock *Exit = F->createBlock("exit");
    B.jmp(Loop);

    B.setBlock(Loop);
    B.binopTo(I, Opcode::Sub, Width::W32, I, One);
    Reg J = B.arrayLoad(Type::I32, A, I, "j");
    B.binopTo(J, Opcode::And, Width::W32, J, C);
    B.binopTo(T, Opcode::Add, Width::W32, T, J);
    Reg Cond = B.cmp32(CmpPred::SGT, I, Start);
    B.br(Cond, Loop, Exit);

    B.setBlock(Exit);
    Reg D = B.i2d(T, "d");
    B.ret(D);
  }

  // A main() that allocates the arrays and calls fig7.
  Function *Main = M->createFunction("main", Type::F64);
  {
    IRBuilder B(Main);
    B.startBlock("entry");
    Reg Len = B.constI32(4096);
    Reg A = B.newArray(Type::I32, Len, "a");
    Reg OneElem = B.constI32(1);
    Reg Src = B.newArray(Type::I32, OneElem, "src");
    Reg Zero = B.constI32(0);
    Reg Init = B.constI32(4000);
    B.arrayStore(Type::I32, Src, Zero, Init);
    Reg K = Main->newReg(Type::I32, "k");
    B.copyTo(K, Zero);
    Reg One = B.constI32(1);
    BasicBlock *Fill = Main->createBlock("fill");
    BasicBlock *Call = Main->createBlock("call");
    B.jmp(Fill);
    B.setBlock(Fill);
    Reg V = B.mul32(K, B.constI32(2654435761u & 0x7FFFFFFF), "v");
    B.arrayStore(Type::I32, A, K, V);
    B.binopTo(K, Opcode::Add, Width::W32, K, One);
    Reg Cond = B.cmp32(CmpPred::SLT, K, Len);
    B.br(Cond, Fill, Call);
    B.setBlock(Call);
    Reg Start = B.constI32(16);
    Reg Result = Main->newReg(Type::F64, "result");
    B.callTo(Result, M->findFunction("fig7"), {Src, A, Start});
    B.ret(Result);
  }
  return M;
}

void report(const char *Label, Module &M) {
  StaticExtensionCounts Static = countStaticExtensions(*M.findFunction("fig7"));
  Interpreter Interp(M, InterpOptions{});
  ExecResult R = Interp.run("main");
  std::printf("%-28s static sxt in fig7: %2llu   dynamic sxt: %8llu   "
              "cycles: %10llu   result bits: %016llx\n",
              Label, static_cast<unsigned long long>(Static.totalSext()),
              static_cast<unsigned long long>(R.ExecutedSext32),
              static_cast<unsigned long long>(R.Cycles),
              static_cast<unsigned long long>(R.ReturnValue));
}

} // namespace

int main() {
  auto Pristine = buildExample();

  std::printf("=== 32-bit architecture form (before conversion) ===\n%s\n",
              printFunction(*Pristine->findFunction("fig7")).c_str());

  // Baseline: conversion + general optimizations, no elimination.
  auto BaselineModule = cloneModule(*Pristine);
  runInstrumentedPipeline(*BaselineModule,
                          PipelineConfig::forVariant(Variant::Baseline));
  std::printf("=== baseline (64-bit conversion, no elimination) ===\n%s\n",
              printFunction(*BaselineModule->findFunction("fig7")).c_str());

  // The paper's new algorithm, everything enabled.
  auto Optimized = cloneModule(*Pristine);
  runInstrumentedPipeline(*Optimized,
                          PipelineConfig::forVariant(Variant::All));
  std::printf("=== new algorithm (all) ===\n%s\n",
              printFunction(*Optimized->findFunction("fig7")).c_str());

  std::printf("Figure 8(b) check: the loop body contains no extension and "
              "one sext32 remains before (double)t.\n\n");
  report("baseline:", *BaselineModule);
  report("new algorithm (all):", *Optimized);
  return 0;
}
