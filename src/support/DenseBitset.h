//===- support/DenseBitset.h - Fixed-size word bitset -----------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bit-vector of every dataflow analysis, from the reaching
/// definitions behind the UD/DU chains (the paper's Table 3 "chain
/// creation" cost) to machine liveness. The size is fixed at
/// construction; set operations run a 64-bit word at a time and report
/// whether they changed the set, which is what a fixpoint loop needs.
/// Every index is asserted below the size, so checked builds catch a
/// table indexed by the wrong key and release builds pay nothing.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_SUPPORT_DENSEBITSET_H
#define SXE_SUPPORT_DENSEBITSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sxe {

/// Set of integers in [0, size()) stored one bit each.
class DenseBitset {
public:
  DenseBitset() = default;

  /// A set of \p Size bits, all clear, or all set when \p Filled. Bits
  /// past the size stay clear either way, so == and forEach are exact.
  explicit DenseBitset(size_t Size, bool Filled = false)
      : Size(Size), Words((Size + 63) / 64, Filled ? ~0ULL : 0) {
    if (Filled && Size % 64 != 0)
      Words.back() = (1ULL << (Size % 64)) - 1;
  }

  size_t size() const { return Size; }

  bool test(size_t Index) const {
    assert(Index < Size && "DenseBitset index out of range");
    return (Words[Index / 64] >> (Index % 64)) & 1;
  }
  void set(size_t Index) {
    assert(Index < Size && "DenseBitset index out of range");
    Words[Index / 64] |= 1ULL << (Index % 64);
  }
  void reset(size_t Index) {
    assert(Index < Size && "DenseBitset index out of range");
    Words[Index / 64] &= ~(1ULL << (Index % 64));
  }

  /// this |= Other; returns true if this changed.
  bool unionWith(const DenseBitset &Other) {
    return combine(Other, [](uint64_t A, uint64_t B) { return A | B; });
  }
  /// this &= Other; returns true if this changed.
  bool intersectWith(const DenseBitset &Other) {
    return combine(Other, [](uint64_t A, uint64_t B) { return A & B; });
  }
  /// this &= ~Other; returns true if this changed.
  bool subtract(const DenseBitset &Other) {
    return combine(Other, [](uint64_t A, uint64_t B) { return A & ~B; });
  }

  /// Calls \p Fn with every member, in ascending order.
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t WordIndex = 0; WordIndex < Words.size(); ++WordIndex) {
      for (uint64_t Word = Words[WordIndex]; Word; Word &= Word - 1)
        Fn(WordIndex * 64 + static_cast<size_t>(__builtin_ctzll(Word)));
    }
  }

  bool operator==(const DenseBitset &Other) const = default;

private:
  template <typename OpT> bool combine(const DenseBitset &Other, OpT Op) {
    assert(Size == Other.Size && "DenseBitset size mismatch");
    uint64_t Diff = 0;
    for (size_t Index = 0; Index < Words.size(); ++Index) {
      uint64_t Next = Op(Words[Index], Other.Words[Index]);
      Diff |= Next ^ Words[Index];
      Words[Index] = Next;
    }
    return Diff != 0;
  }

  size_t Size = 0;
  std::vector<uint64_t> Words;
};

} // namespace sxe

#endif // SXE_SUPPORT_DENSEBITSET_H
