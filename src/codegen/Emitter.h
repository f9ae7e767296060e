//===- codegen/Emitter.h - Machine IR to x86-64 bytes ------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns allocated machine IR into executable x86-64 bytes.
///
/// Every compiled function uses one internal ABI:
///
///   uint64_t fn(NativeCtx *ctx /* RDI */, const uint64_t *args /* RSI */)
///
/// which is SysV-compatible, so the host C++ code calls entry points
/// directly. The prologue pins the context in R15, saves the callee-saved
/// set, checks the call-depth budget; every block head pays its fuel cost
/// (the interpreter-equivalent step budget); runtime traps route through
/// per-function out-of-line stubs into rt_trap, which longjmps back to
/// NativeModule::run. Internal calls go through the per-run function table
/// in the context (no relocations — the code is position-independent),
/// helper calls through absolute addresses bound at emission. Array access
/// is inline: the context's descriptor table maps handle - 1 to the
/// array's data and length, and the null, bounds and wild-address checks
/// branch to the same trap stubs.
///
/// Frame layout (rbp-relative):
///
///   [rbp-8..-40]   saved rbx, r12, r13, r14, r15
///   [rbp-48]       incoming args pointer
///   [rbp-56-8i]    spill slot i
///   [rsp+8j]       outgoing argument j (also the staging area helpers'
///                  arguments pass through)
///
//===----------------------------------------------------------------------===//

#ifndef SXE_CODEGEN_EMITTER_H
#define SXE_CODEGEN_EMITTER_H

#include "codegen/MachineIR.h"

#include <cstdint>
#include <vector>

namespace sxe {

/// Absolute addresses of the runtime helpers, bound by NativeEngine.
struct HelperTable {
  uint64_t NewArray = 0;
  uint64_t Div32 = 0;
  uint64_t Rem32 = 0;
  uint64_t Div64 = 0;
  uint64_t Rem64 = 0;
  uint64_t D2I = 0;
  uint64_t FCmp = 0;
  uint64_t Trap = 0;

  uint64_t address(MHelper H) const;
};

/// Byte offsets the emitted code assumes inside NativeCtx; NativeEngine
/// static_asserts they match the real struct.
struct NativeCtxLayout {
  static constexpr int32_t FuelOffset = 0;
  static constexpr int32_t DepthOffset = 8;
  static constexpr int32_t MaxDepthOffset = 12;
  static constexpr int32_t FnTableOffset = 16;
  static constexpr int32_t ArrayTableOffset = 32; ///< NativeArrayDesc *
  static constexpr int32_t ArrayCountOffset = 40; ///< uint64_t
};

/// One entry of the context's array table; the entry for handle H is at
/// index H - 1 (handle 0 is the null reference). Emitted code scales the
/// index by a shift, so the entry must stay 16 bytes.
struct NativeArrayDesc {
  uint64_t *Data;
  uint64_t Len; ///< At most 2^31 - 1, so a zero-extended index compares.
};
static_assert(sizeof(NativeArrayDesc) == 16,
              "emitted code disagrees with NativeArrayDesc size");

/// rt_trap's argument is the TrapKind to raise. A NullArray raised by an
/// array length also carries this bit, so that its message can name the
/// operation the way the interpreter's does.
constexpr uint64_t TrapFromArrayLen = 0x100;

/// One emitted module: flat code plus each function's entry offset.
struct EmittedModule {
  std::vector<uint8_t> Code;
  std::vector<size_t> FunctionOffsets; ///< Indexed by MFunction::index().
};

/// Emits every (allocated, verified) function of \p MM. An array index
/// whose upper half disagrees with the bounds-checked low half traps
/// WildAddress, as it does in the interpreter.
EmittedModule emitModule(const MModule &MM, const HelperTable &Helpers);

} // namespace sxe

#endif // SXE_CODEGEN_EMITTER_H
