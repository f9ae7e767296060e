//===- support/IRHash.h - Stable structural IR hashing -----------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stable 64-bit structural hash over IR, the content-address half of
/// the jit/ code-cache key. Two modules hash equal exactly when they are
/// structurally identical programs:
///
///  - function names, signatures, and register *types* are hashed;
///  - register display names, block names, instruction ids, and the
///    module name are NOT — they are cosmetic, so a clone (ir/Cloner.h),
///    a print/parse round trip, or a rename-of-nothing keeps the hash;
///  - block successors and call targets are hashed by layout index, not
///    by pointer, so the hash is stable across processes and runs.
///
/// The hash is 64-bit FNV-1a over a canonical byte serialization; it is
/// *not* cryptographic. The code-cache key holds only this hash (plus the
/// configuration), not the module, so two different modules that collide
/// under one configuration share a cache entry and the second is served
/// the first's artifact — a wrong artifact, with probability about 2^-64
/// per pair. The code cache's source key (jit/CodeCache.h), the same
/// hasher over raw `.sxir` bytes, has the same strength.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_SUPPORT_IRHASH_H
#define SXE_SUPPORT_IRHASH_H

#include <cstdint>
#include <string>

namespace sxe {

class Module;
class Function;

/// Incremental FNV-1a 64-bit hasher over canonical words.
class StableHasher {
public:
  void mix(uint64_t Word) {
    for (unsigned Byte = 0; Byte < 8; ++Byte) {
      Hash ^= (Word >> (Byte * 8)) & 0xFF;
      Hash *= 0x100000001B3ull;
    }
  }

  void mix(const std::string &Text) {
    mix(static_cast<uint64_t>(Text.size()));
    for (char C : Text) {
      Hash ^= static_cast<unsigned char>(C);
      Hash *= 0x100000001B3ull;
    }
  }

  uint64_t result() const { return Hash; }

private:
  uint64_t Hash = 0xCBF29CE484222325ull;
};

/// Structural hash of one function (signature, registers, blocks,
/// instructions; successors and callees by index).
uint64_t hashFunction(const Function &F);

/// Structural hash of a whole module: its functions in layout order.
/// The module's own name is excluded.
uint64_t hashModule(const Module &M);

} // namespace sxe

#endif // SXE_SUPPORT_IRHASH_H
