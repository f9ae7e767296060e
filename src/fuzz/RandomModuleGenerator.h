//===- fuzz/RandomModuleGenerator.h - Seeded random IR modules ---*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded, deterministic generator of structurally safe random modules
/// for differential testing. Extracted from the generator that used to be
/// inlined in tests/random_program_test.cpp and substantially extended:
/// helper functions with call boundaries, mixed 32/64-bit arithmetic over
/// an i64 variable pool, wide (i64-element) arrays with cross-width
/// stores, unsigned constructs (char arrays with zero-extending loads,
/// (char)/zext8 casts, trunc32 narrowings, unsigned compares), and
/// controllable size/shape knobs.
///
/// Generated programs follow two disciplines that make them valid oracle
/// subjects:
///
///  - *Trap-free by construction, except arithmetic edge cases.* Every
///    array index is masked to the (power-of-two) array length, divisors
///    are forced odd with `| 1`, and all loops have constant trip counts,
///    so the only admissible traps are the arithmetic ones that must then
///    reproduce identically under every pipeline variant.
///  - *Width crossings are explicit.* A W32 operation only ever defines an
///    I32 (or narrower) register and a W64 operation an I64 register;
///    values cross widths through explicit sext/zext instructions, exactly
///    the "32-bit architecture form" the Conversion64 pass expects.
///
/// The same (seed, options) pair always produces a byte-identical module,
/// so any failure reported by the differential harness is reproducible
/// from its seed alone.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_FUZZ_RANDOMMODULEGENERATOR_H
#define SXE_FUZZ_RANDOMMODULEGENERATOR_H

#include "ir/Module.h"
#include "support/RNG.h"
#include "workloads/KernelBuilder.h"

#include <memory>
#include <vector>

namespace sxe {

/// Size and shape knobs for RandomModuleGenerator.
struct GeneratorOptions {
  // --- Size ---------------------------------------------------------------
  unsigned NumI32Arrays = 2;  ///< int[] pools in main.
  unsigned NumByteArrays = 1; ///< byte[] pools in main (sign-extending loads).
  unsigned NumCharArrays = 1; ///< char[] pools in main (zero-extending loads).
  unsigned NumWideArrays = 1; ///< long[] pools in main (mixed-width stores).
  unsigned NumI32Vars = 6;    ///< i32 scratch variables.
  unsigned NumI64Vars = 2;    ///< i64 scratch variables.
  unsigned MaxDepth = 3;      ///< Nesting depth of control-flow statements.
  unsigned MinStatements = 2; ///< Statements per block, lower bound.
  unsigned MaxStatements = 6; ///< Statements per block, upper bound.
  unsigned MaxLoopTrips = 6;  ///< Constant loop trip counts are 1..this.
  unsigned LenSpreadLog2 = 4; ///< Array lengths are 8 << [0, this).
  unsigned MaxHelpers = 2;    ///< Callable helper functions.
  unsigned MaxHelperParams = 3;

  // --- Feature toggles ----------------------------------------------------
  // 64-bit arithmetic over the i64 pool, guarded div/rem statements and
  // i32<->i64 array crossings are always generated.
  bool EnableCalls = true;    ///< Helper functions and call statements.
  bool EnableFloat = true;    ///< i2d/f*/d2i round trips.
  bool EnableUnsignedOps = true; ///< (char) casts, zext8 masks, trunc32 of
                                 ///< i64, and unsigned compare predicates.

  /// Preset: tiny modules for quick smoke runs and parser-fuzz seeds.
  static GeneratorOptions small();
  /// Preset: the default shape (the historical random_program_test shape
  /// plus calls, wide arithmetic, and wide arrays).
  static GeneratorOptions medium();
  /// Preset: deep nesting, more helpers and state; a few hundred
  /// instructions per module.
  static GeneratorOptions large();
};

/// Deterministic random module generator. One instance generates one
/// module; construct a fresh instance per seed.
class RandomModuleGenerator {
public:
  explicit RandomModuleGenerator(uint64_t Seed,
                                 GeneratorOptions Options = GeneratorOptions());

  /// Builds the module: zero or more helper functions plus a `main`
  /// returning the i64 checksum of all observable program state.
  std::unique_ptr<Module> generate();

private:
  struct Scope; // Per-function generation state.

  void buildHelper(Module &M, unsigned Index);
  void buildMain(Module &M);

  Reg randI32(Scope &S);
  Reg randI64(Scope &S);
  void accumulate32(Scope &S, Reg V32);
  void accumulate64(Scope &S, Reg V64);
  void emitStatement(Scope &S, unsigned Depth);
  void emitBlock(Scope &S, unsigned Depth);
  void emitChecksum(Scope &S);

  uint64_t Seed;
  GeneratorOptions Options;
  RNG R;
  /// Helpers generated so far; helper K may call helpers 0..K-1, main may
  /// call any, so the call graph is acyclic and termination is structural.
  std::vector<Function *> Helpers;
};

} // namespace sxe

#endif // SXE_FUZZ_RANDOMMODULEGENERATOR_H
