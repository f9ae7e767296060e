//===- support/IRHash.cpp - Stable structural IR hashing ----------------------===//
//
// Only inline accessors of the IR headers are used, so sxe_support gains
// no link-time dependency on sxe_ir.
//
//===---------------------------------------------------------------------------===//

#include "support/IRHash.h"

#include "ir/Module.h"

#include <bit>
#include <cstring>
#include <unordered_map>

using namespace sxe;

namespace {

uint64_t bitsOf(double Value) {
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return Bits;
}

void hashFunctionInto(StableHasher &H, const Function &F,
                      const std::unordered_map<const Function *, uint64_t>
                          &FunctionIndex) {
  H.mix(F.name());
  H.mix(static_cast<uint64_t>(F.returnType()));
  H.mix(static_cast<uint64_t>(F.numParams()));
  H.mix(static_cast<uint64_t>(F.numRegs()));
  for (Reg R = 0; R < F.numRegs(); ++R)
    H.mix(static_cast<uint64_t>(F.regType(R)));

  // Successor and block references hash as layout indices: stable across
  // processes, insensitive to block ids left behind by erased blocks.
  std::unordered_map<const BasicBlock *, uint64_t> BlockIndex;
  for (const auto &BB : F.blocks())
    BlockIndex.emplace(BB.get(), BlockIndex.size());

  H.mix(static_cast<uint64_t>(F.numBlocks()));
  for (const auto &BB : F.blocks()) {
    H.mix(static_cast<uint64_t>(BB->size()));
    for (const Instruction &Inst : *BB) {
      H.mix(static_cast<uint64_t>(Inst.opcode()));
      H.mix(static_cast<uint64_t>(Inst.width()));
      H.mix(static_cast<uint64_t>(Inst.type()));
      H.mix(static_cast<uint64_t>(Inst.pred()));
      H.mix(static_cast<uint64_t>(Inst.dest()));
      H.mix(static_cast<uint64_t>(Inst.numOperands()));
      for (Reg Operand : Inst.operands())
        H.mix(static_cast<uint64_t>(Operand));
      H.mix(static_cast<uint64_t>(Inst.intValue()));
      H.mix(bitsOf(Inst.floatValue()));
      H.mix(static_cast<uint64_t>(Inst.numSuccessors()));
      for (unsigned Index = 0; Index < Inst.numSuccessors(); ++Index)
        H.mix(BlockIndex.at(Inst.successor(Index)));
      if (const Function *Callee = Inst.callee())
        H.mix(FunctionIndex.at(Callee) + 1);
      else
        H.mix(0);
    }
  }
}

std::unordered_map<const Function *, uint64_t>
functionIndexOf(const Module &M) {
  std::unordered_map<const Function *, uint64_t> Index;
  for (const auto &F : M.functions())
    Index.emplace(F.get(), Index.size());
  return Index;
}

// hashBytes128's primes (those of XXH64) and mixing steps.
constexpr uint64_t Prime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t Prime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t Prime3 = 0x165667B19E3779F9ull;
constexpr uint64_t Prime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t Prime5 = 0x27D4EB2F165667C5ull;

/// Up to eight bytes at \p Data as a little-endian word, zero-padded.
uint64_t loadWord(const char *Data, size_t Size = 8) {
  uint64_t Word = 0;
  std::memcpy(&Word, Data, Size);
  if constexpr (std::endian::native == std::endian::big)
    Word = __builtin_bswap64(Word);
  return Word;
}

/// One lane step. For a fixed lane value it is a bijection of the word,
/// and for a fixed word a bijection of the lane value, so a differing
/// word keeps its lane different through every later step.
uint64_t laneRound(uint64_t Lane, uint64_t Word) {
  return std::rotl(Lane + Word * Prime2, 31) * Prime1;
}

/// MurmurHash3's 64-bit finalizer: a bijection in which every input bit
/// reaches every output bit.
uint64_t finalMix(uint64_t Value) {
  Value ^= Value >> 33;
  Value *= 0xFF51AFD7ED558CCDull;
  Value ^= Value >> 33;
  Value *= 0xC4CEB9FE1A85EC53ull;
  Value ^= Value >> 33;
  return Value;
}

} // namespace

Hash128 sxe::hashBytes128(std::string_view Bytes) {
  const char *Data = Bytes.data();
  const size_t Size = Bytes.size();
  uint64_t Lane[4] = {Prime1 + Prime2, Prime2, 0, 0 - Prime1};
  size_t Index = 0;
  // Four independent dependency chains, so their multiplies overlap.
  for (; Index + 32 <= Size; Index += 32)
    for (unsigned L = 0; L < 4; ++L)
      Lane[L] = laneRound(Lane[L], loadWord(Data + Index + 8 * L));
  unsigned L = 0;
  for (; Index + 8 <= Size; Index += 8, ++L)
    Lane[L] = laneRound(Lane[L], loadWord(Data + Index));
  if (Index < Size)
    Lane[L] = laneRound(Lane[L], loadWord(Data + Index, Size - Index));

  // Each output word is a bijection of every lane (and of the length)
  // with the others fixed, and the two combine the lanes differently.
  uint64_t Length = static_cast<uint64_t>(Size);
  Hash128 Out;
  Out.Lo = finalMix(std::rotl(Lane[0], 1) + std::rotl(Lane[1], 7) +
                    std::rotl(Lane[2], 12) + std::rotl(Lane[3], 18) +
                    Length * Prime5);
  Out.Hi = finalMix((Lane[0] ^ std::rotl(Lane[1], 32)) * Prime3 +
                    (Lane[2] ^ std::rotl(Lane[3], 32)) * Prime4 +
                    Length * Prime2);
  return Out;
}

uint64_t sxe::hashFunction(const Function &F) {
  StableHasher H;
  // A lone function hashes its callees by name (no module-wide index).
  std::unordered_map<const Function *, uint64_t> Index;
  if (const Module *M = F.parent())
    Index = functionIndexOf(*M);
  hashFunctionInto(H, F, Index);
  return H.result();
}

uint64_t sxe::hashModule(const Module &M) {
  StableHasher H;
  auto Index = functionIndexOf(M);
  H.mix(static_cast<uint64_t>(M.functions().size()));
  for (const auto &F : M.functions())
    hashFunctionInto(H, *F, Index);
  return H.result();
}
