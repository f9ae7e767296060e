//===- examples/profile_guided.cpp - Figure 15 through the tiered JIT -----------===//
//
// The paper's Figure 15 argument: partial dead code elimination cannot
// move a sign extension from one diamond arm to the join, but
// insertion + profile-guided order determination places the surviving
// extension on the *cold* path.
//
// This example exercises the real mixed-mode loop: the TieredController
// runs the program in the interpreter tier (collecting branch profiles),
// then enqueues a profile-guided recompile with the CompileService — the
// same interpret -> profile -> recompile path a production VM takes,
// instead of hand-fed synthetic profiles.
//
// The program has a diamond inside a loop: the hot arm (97% by profile)
// computes t = i + 1 and needs no extension; the join uses t as an array
// index. We compile it with PDE, without a profile, and through the
// tiered path, and show where the extension lands each time.
//
// Run:  ./profile_guided
//
//===-----------------------------------------------------------------------------===//

#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "jit/CompileService.h"
#include "jit/TieredController.h"
#include "parser/Parser.h"
#include "sxe/Pipeline.h"

#include <cstdio>

using namespace sxe;

namespace {

std::unique_ptr<Module> buildDiamond() {
  auto M = std::make_unique<Module>("diamond");
  Function *F = M->createFunction("diamond", Type::I32);
  Reg A = F->addParam(Type::ArrayRef, "a");
  Reg N = F->addParam(Type::I32, "n");

  IRBuilder B(F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  Reg One = B.constI32(1);
  Reg I = F->newReg(Type::I32, "i");
  B.copyTo(I, Zero);
  Reg T = F->newReg(Type::I32, "t");
  B.copyTo(T, Zero);
  Reg Sum = F->newReg(Type::I32, "sum");
  B.copyTo(Sum, Zero);

  BasicBlock *Head = F->createBlock("head");
  BasicBlock *Check = F->createBlock("check");
  BasicBlock *Hot = F->createBlock("hot");
  BasicBlock *Cold = F->createBlock("cold");
  BasicBlock *Join = F->createBlock("join");
  BasicBlock *Exit = F->createBlock("exit");
  B.jmp(Head);

  B.setBlock(Head);
  Reg InLoop = B.cmp32(CmpPred::SLT, I, N);
  B.br(InLoop, Check, Exit);

  B.setBlock(Check);
  // Cold once every 32 iterations.
  Reg Masked = B.and32(I, B.constI32(31));
  Reg TakeHot = B.cmp32(CmpPred::NE, Masked, Zero);
  B.br(TakeHot, Hot, Cold);

  B.setBlock(Hot);
  B.binopTo(T, Opcode::Add, Width::W32, I, One);
  B.jmp(Join);

  B.setBlock(Cold);
  Reg Big = B.mul32(I, B.constI32(2654435761u & 0x7FFFFFFF), "big");
  B.binopTo(T, Opcode::And, Width::W32, Big, B.constI32(0xFFFF));
  B.jmp(Join);

  B.setBlock(Join);
  Reg V = B.arrayLoad(Type::I32, A, T, "v");
  B.binopTo(Sum, Opcode::Add, Width::W32, Sum, V);
  B.binopTo(I, Opcode::Add, Width::W32, I, One);
  B.jmp(Head);

  B.setBlock(Exit);
  B.ret(Sum);

  // A main() for the interpreter tier to profile.
  Function *Main = M->createFunction("main", Type::I32);
  {
    IRBuilder MB(Main);
    MB.startBlock("entry");
    Reg Len = MB.constI32(1 << 16);
    Reg Arr = MB.newArray(Type::I32, Len, "arr");
    Reg Count = MB.constI32(20000);
    Reg Result = Main->newReg(Type::I32, "result");
    MB.callTo(Result, F, {Arr, Count});
    MB.ret(Result);
  }
  return M;
}

/// Prints which blocks of `diamond` still hold extensions in \p IRText.
void showBlocks(const std::string &IRText, const char *Label) {
  ParseResult Parsed = parseModule(IRText);
  if (!Parsed.ok()) {
    std::printf("=== %s === (unparseable: %s)\n", Label,
                Parsed.Error.c_str());
    return;
  }
  std::printf("=== %s ===\n", Label);
  for (const auto &BB : Parsed.M->findFunction("diamond")->blocks()) {
    unsigned Count = 0;
    for (const Instruction &Inst : *BB)
      Count += Inst.isSext() ? 1 : 0;
    if (Count)
      std::printf("  block %-6s: %u extension(s)\n", BB->name().c_str(),
                  Count);
  }
  std::printf("\n");
}

} // namespace

int main() {
  std::unique_ptr<Module> M = buildDiamond();

  // One compile service with a code cache behind every tier.
  CodeCache Cache;
  CompileServiceOptions ServiceOptions;
  ServiceOptions.Jobs = 2;
  ServiceOptions.Cache = &Cache;
  CompileService Service(ServiceOptions);

  // The PDE reference, for contrast (no profile in play).
  {
    CompileRequest Request;
    Request.Name = "diamond:pde";
    Request.M = cloneModule(*M);
    Request.Config = PipelineConfig::forVariant(Variant::AllPDE);
    CompileResult Result = Service.enqueue(std::move(Request)).get();
    if (Result.ok())
      showBlocks(Result.Code->IRText, "all, using PDE insertion (reference)");
  }

  // The real mixed-mode loop: interpret (tier 0, profiling), compile
  // without a profile (tier 1), recompile profile-guided (tier 2).
  TieredController Controller(Service);
  TieredOutcome Outcome = Controller.run(*M);

  std::printf("tier 0 (interpreter): trap=%s checksum=%lld "
              "instructions=%llu profile=%s\n\n",
              trapKindName(Outcome.Warmup.Trap),
              static_cast<long long>(Outcome.Warmup.ReturnValue),
              static_cast<unsigned long long>(
                  Outcome.Warmup.ExecutedInstructions),
              Outcome.ProfileCollected ? "collected" : "empty");

  if (Outcome.Unprofiled.ok())
    showBlocks(Outcome.Unprofiled.Code->IRText,
               "tier 1: new algorithm, static frequency estimate");
  if (Outcome.Profiled.ok())
    showBlocks(Outcome.Profiled.Code->IRText,
               "tier 2: new algorithm, interpreter branch profile");

  std::printf(
      "PDE-style sinking leaves an extension at the join, executed every\n"
      "iteration: it may not lengthen any path, so it cannot move work\n"
      "into the diamond's arms or out of the loop (Figure 15). The tiered\n"
      "recompile feeds the interpreter's branch profile to insertion plus\n"
      "order determination, which rebuild the extension where it is\n"
      "cheapest - the loop exit - so the join runs extension-free.\n");
  return Outcome.Warmup.ok() && Outcome.Profiled.ok() ? 0 : 1;
}
