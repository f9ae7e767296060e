//===- examples/array_theorems.cpp - Theorems 1-4 on array subscripts ----------===//
//
// Demonstrates Section 3 of the paper:
//
//  1. Figure 9: a count-up loop subscript i+1 (Theorem 2) and why order
//     determination decides which of the two candidate extensions to keep.
//  2. A count-down loop subscript i-1 (Theorems 3/4; the paper notes this
//     "will cover count down loops").
//  3. Figure 10: an extension that is removable only when the maximum
//     array size is known to be below 0x7fffffff (Theorem 4's maxlen).
//
// Run:  ./array_theorems
//
//===----------------------------------------------------------------------------===//

#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "pm/InstrumentedPipeline.h"
#include "sxe/Pipeline.h"
#include "target/StaticCounts.h"

#include <cstdio>

using namespace sxe;

namespace {

/// Figure 9(a): i = j + k; do { i = i + 1; a[i] = 0; } while (i < end);
std::unique_ptr<Module> buildFigure9() {
  auto M = std::make_unique<Module>("figure9");
  Function *F = M->createFunction("fig9", Type::Void);
  Reg A = F->addParam(Type::ArrayRef, "a");
  Reg J = F->addParam(Type::I32, "j");
  Reg K = F->addParam(Type::I32, "k");
  Reg End = F->addParam(Type::I32, "end");

  IRBuilder B(F);
  B.startBlock("entry");
  Reg I = B.add32(J, K, "i");
  Reg One = B.constI32(1);
  Reg Zero = B.constI32(0);
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.jmp(Loop);
  B.setBlock(Loop);
  B.binopTo(I, Opcode::Add, Width::W32, I, One);
  B.arrayStore(Type::I32, A, I, Zero);
  Reg Cond = B.cmp32(CmpPred::SLT, I, End);
  B.br(Cond, Loop, Exit);
  B.setBlock(Exit);
  B.retVoid();
  return M;
}

/// A count-down sum: do { i = i - 1; t += a[i]; } while (i > 0);
std::unique_ptr<Module> buildCountdown() {
  auto M = std::make_unique<Module>("countdown");
  Function *F = M->createFunction("countdown", Type::I32);
  Reg A = F->addParam(Type::ArrayRef, "a");
  Reg N = F->addParam(Type::I32, "n");

  IRBuilder B(F);
  B.startBlock("entry");
  Reg I = B.copy(N, "i");
  Reg T = B.constI32(0, "t");
  Reg One = B.constI32(1);
  Reg Zero = B.constI32(0);
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.jmp(Loop);
  B.setBlock(Loop);
  B.binopTo(I, Opcode::Sub, Width::W32, I, One);
  Reg V = B.arrayLoad(Type::I32, A, I, "v");
  B.binopTo(T, Opcode::Add, Width::W32, T, V);
  Reg Cond = B.cmp32(CmpPred::SGT, I, Zero);
  B.br(Cond, Loop, Exit);
  B.setBlock(Exit);
  B.ret(T);
  return M;
}

/// Figure 10's shape: a subscript i-2 whose source is sign-extended but
/// unbounded (here: a parameter). Theorem 3 needs a zero upper half and
/// does not apply; Theorem 4 applies exactly when j = -2 >=
/// (maxlen-1)-0x7fffffff, i.e. when the maximum array size is known to be
/// below 0x7ffffffe. (The paper's literal Figure 10 uses a zero-extending
/// memory load; our Theorem 3 implementation already proves that case
/// safe at any maxlen — see DESIGN.md — so the parameter variant is the
/// faithful demonstration of the size-dependent elimination.)
std::unique_ptr<Module> buildFigure10() {
  auto M = std::make_unique<Module>("figure10");
  Function *F = M->createFunction("fig10", Type::F64);
  Reg IStart = F->addParam(Type::I32, "i0");
  Reg A = F->addParam(Type::ArrayRef, "a");
  Reg Start = F->addParam(Type::I32, "start");

  IRBuilder B(F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  Reg I = B.copy(IStart, "i");
  Reg T = B.copy(Zero, "t");
  Reg Two = B.constI32(2);
  Reg C = B.constI32(0x0FFFFFFF, "C");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.jmp(Loop);
  B.setBlock(Loop);
  B.binopTo(I, Opcode::Sub, Width::W32, I, Two); // i = i - 2.
  Reg J = B.arrayLoad(Type::I32, A, I, "j");
  B.binopTo(J, Opcode::And, Width::W32, J, C);
  B.binopTo(T, Opcode::Add, Width::W32, T, J);
  Reg Cond = B.cmp32(CmpPred::SGT, I, Start);
  B.br(Cond, Loop, Exit);
  B.setBlock(Exit);
  Reg D = B.i2d(T, "d");
  B.ret(D);
  return M;
}

unsigned loopExtensions(Module &M, const char *FuncName) {
  unsigned Count = 0;
  for (const auto &BB : M.findFunction(FuncName)->blocks())
    if (BB->name() == "loop")
      for (const Instruction &I : *BB)
        Count += I.isSext() ? 1 : 0;
  return Count;
}

} // namespace

int main() {
  // --- Figure 9: order determination picks the in-loop extension. --------
  {
    auto M = buildFigure9();
    auto WithOrder = cloneModule(*M);
    runInstrumentedPipeline(*WithOrder,
                            PipelineConfig::forVariant(Variant::ArrayOrder));
    std::printf("=== Figure 9 with array theorems + order determination ===\n"
                "%s(loop extensions: %u — Result 1: the hot extension is "
                "gone)\n\n",
                printFunction(*WithOrder->findFunction("fig9")).c_str(),
                loopExtensions(*WithOrder, "fig9"));
  }

  // --- Count-down loops: Theorem 4 with j = -1 >= (maxlen-1)-0x7fffffff. --
  {
    auto M = buildCountdown();
    runInstrumentedPipeline(*M, PipelineConfig::forVariant(Variant::All));
    std::printf("=== Count-down loop under the new algorithm ===\n"
                "%s(loop extensions: %u — Theorem 4 covers i-1)\n\n",
                printFunction(*M->findFunction("countdown")).c_str(),
                loopExtensions(*M, "countdown"));
  }

  // --- Figure 10: the maxlen-dependent elimination. -----------------------
  {
    auto M = buildFigure10();

    auto JavaLimit = cloneModule(*M);
    PipelineConfig Full = PipelineConfig::forVariant(Variant::All);
    Full.MaxArrayLen = 0x7FFFFFFF; // The Java limit: NOT removable.
    runInstrumentedPipeline(*JavaLimit, Full);

    auto Limited = cloneModule(*M);
    PipelineConfig Small = PipelineConfig::forVariant(Variant::All);
    Small.MaxArrayLen = 0x7FFF0001; // The paper's example limit: removable.
    runInstrumentedPipeline(*Limited, Small);

    std::printf("=== Figure 10: subscript i-2 from a zero-extended load ===\n");
    std::printf("maxlen = 0x7fffffff: loop extensions = %u (kept — a[i] "
                "could legally hit index 0x7ffffffe)\n",
                loopExtensions(*JavaLimit, "fig10"));
    std::printf("maxlen = 0x7fff0001: loop extensions = %u (eliminated — "
                "the access would always throw first)\n",
                loopExtensions(*Limited, "fig10"));
  }
  return 0;
}
