//===- jit/TieredController.h - Interpret, profile, recompile ----*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's mixed-mode VM loop, end to end: run the program in the
/// bytecode-interpreter tier (Java semantics) under a warm-up step
/// budget, collecting branch profiles, then enqueue a profile-guided
/// recompile with the dynamic compiler — exactly the producer/consumer
/// pair of Section 2.2, where order determination consumes interpreter
/// profiles (cf. OCAMLJIT2's interpret-then-JIT tiering, PAPERS.md).
///
/// Tier 0   interpreter, ExecSemantics::Java, ProfileInfo recording,
///          running `main` under a 2^24-step budget
/// Tier 1   compile with static frequency estimates (both compiled tiers
///          run Variant::All)
/// Tier 2   recompile with Config.Profile = the tier-0 profile, enqueued
///          at a hotness proportional to the observed execution count
/// Tier 3   (x86_64 target, capable hosts) execute the tier-2 output
///          natively through the baseline code generator
///          (codegen/NativeEngine.h) — the recompiled code actually runs
///          on hardware instead of being only an artifact
///
/// The controller owns the ProfileInfo, so the pointer baked into the
/// tier-2 request stays valid for the compile's whole lifetime. One
/// controller instance serves one workload at a time; many controllers
/// may share one CompileService.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_JIT_TIEREDCONTROLLER_H
#define SXE_JIT_TIEREDCONTROLLER_H

#include "analysis/ProfileInfo.h"
#include "interp/Interpreter.h"
#include "jit/CompileService.h"

#include <cstdint>
#include <vector>

namespace sxe {

struct TieredOptions {
  const TargetInfo *Target = &TargetInfo::ia64();
};

/// Everything one tiered compilation produces.
struct TieredOutcome {
  /// The tier-0 interpreter run (trap, checksum, dynamic counts).
  ExecResult Warmup;
  /// True when the warm-up observed at least one conditional branch.
  bool ProfileCollected = false;
  /// Tier 1: compiled with static frequency estimates, so callers can
  /// compare placements.
  CompileResult Unprofiled;
  /// Tier 2: the profile-guided recompile.
  CompileResult Profiled;
  /// True when the tier-2 artifact was compiled to x86-64 and executed
  /// natively: the target is x86_64 and the host can run the emitted
  /// code. False otherwise.
  bool NativeExecuted = false;
  /// The native execution's result; meaningful when NativeExecuted. The
  /// trap kind and return value must agree with Warmup on trap-free runs
  /// (the same parity the differential tester enforces).
  ExecResult Native;
};

/// Drives interpret -> profile -> enqueue-recompile over one module.
class TieredController {
public:
  TieredController(CompileService &Service, TieredOptions Options = {});

  /// Runs the full tiering sequence over \p M (never mutated: compiled
  /// tiers work on clones). Blocks until the enqueued compiles finish.
  TieredOutcome run(const Module &M,
                    const std::vector<uint64_t> &Args = {});

private:
  CompileService &Service;
  TieredOptions Options;
  ProfileInfo Profile;
};

} // namespace sxe

#endif // SXE_JIT_TIEREDCONTROLLER_H
