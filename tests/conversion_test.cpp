//===- tests/conversion_test.cpp - Zero-extension/truncation coverage -----------===//
//
// The conversion-family generalization: structural zext/trunc facts and the
// strict Zero@h => Sign@w implication, the x86-64 implicit-zero-extension
// kind flips, elimination of redundant zero extensions and truncations with
// per-kind counter attribution, verifier rejection of conversions whose
// result cannot be canonical for the destination register type, unsigned
// edge-case parity against the Java oracle across all four targets, and the
// generalized conversion-census no-regression.
//
//===----------------------------------------------------------------------------===//

#include "analysis/AnalysisCache.h"
#include "fuzz/DiffTest.h"
#include "interp/Interpreter.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "pm/InstrumentedPipeline.h"
#include "sxe/Elimination.h"
#include "sxe/ExtensionFacts.h"
#include "sxe/Insertion.h"
#include "sxe/OrderDetermination.h"
#include "sxe/Pipeline.h"
#include "target/StaticCounts.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

using namespace sxe;
using namespace sxe::test;

namespace {

/// Last instruction appended to F's entry block.
const Instruction &lastIn(const Function &F) {
  const Instruction *Last = nullptr;
  for (const Instruction &I : *F.entryBlock())
    Last = &I;
  EXPECT_NE(Last, nullptr);
  return *Last;
}

unsigned countOpcode(const Function &F, Opcode Op) {
  unsigned Count = 0;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : *BB)
      Count += I.opcode() == Op ? 1 : 0;
  return Count;
}

/// Runs the basic ud/du elimination (no insertion/order/array) over F.
EliminationStats eliminateBasic(Function &F,
                                const TargetInfo &T = TargetInfo::ia64()) {
  insertDummyExtends(F);
  AnalysisCache A(F, T);
  std::vector<Instruction *> Order = extensionsInReverseDFS(A);
  return runElimination(A, Order, EliminationOptions());
}

//===----------------------------------------------------------------------===//
// Structural facts: zext/trunc kinds and the strict Zero => Sign implication.
//===----------------------------------------------------------------------===//

TEST(ConversionFactsTest, ZextIsZeroExtendedAndStrictlySignExtended) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  B.zext16(P, "c");
  const Instruction &Z16 = lastIn(*F);
  const TargetInfo &T = TargetInfo::ia64();

  // zext16: Zero at 16 and every wider width.
  EXPECT_TRUE(defKnownExtendedStructural(*F, Z16, T, ExtKind::Zero, 16));
  EXPECT_TRUE(defKnownExtendedStructural(*F, Z16, T, ExtKind::Zero, 32));
  EXPECT_FALSE(defKnownExtendedStructural(*F, Z16, T, ExtKind::Zero, 8));
  // Zero@16 implies Sign only STRICTLY above 16: 0xFFFF is Zero@16 but has
  // its bit 15 set, so it is not Sign@16.
  EXPECT_FALSE(defKnownExtendedStructural(*F, Z16, T, ExtKind::Sign, 16));
  EXPECT_TRUE(defKnownExtendedStructural(*F, Z16, T, ExtKind::Sign, 17));
  EXPECT_TRUE(defKnownExtendedStructural(*F, Z16, T, ExtKind::Sign, 32));

  B.zext8(P, "b");
  const Instruction &Z8 = lastIn(*F);
  EXPECT_TRUE(defKnownExtendedStructural(*F, Z8, T, ExtKind::Zero, 8));
  EXPECT_FALSE(defKnownExtendedStructural(*F, Z8, T, ExtKind::Sign, 8));
  EXPECT_TRUE(defKnownExtendedStructural(*F, Z8, T, ExtKind::Sign, 9));
}

TEST(ConversionFactsTest, TruncIsZeroExtendedAtThirtyTwoOnly) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg L = F->addParam(Type::I64, "l");
  IRBuilder B(F);
  B.startBlock("entry");
  B.trunc32(L, "t");
  const Instruction &Tr = lastIn(*F);
  const TargetInfo &T = TargetInfo::ia64();

  EXPECT_TRUE(defKnownExtendedStructural(*F, Tr, T, ExtKind::Zero, 32));
  EXPECT_FALSE(defKnownExtendedStructural(*F, Tr, T, ExtKind::Zero, 16));
  // trunc32(x) can be 0xFFFFFFFF: Zero@32 but not Sign@32.
  EXPECT_FALSE(defKnownExtendedStructural(*F, Tr, T, ExtKind::Sign, 32));
  EXPECT_TRUE(defKnownExtendedStructural(*F, Tr, T, ExtKind::Sign, 33));
}

TEST(ConversionFactsTest, ConstantsSplitByKind) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");
  B.constI32(255, "k");
  const Instruction &K255 = lastIn(*F);
  const TargetInfo &T = TargetInfo::ia64();
  EXPECT_TRUE(defKnownExtendedStructural(*F, K255, T, ExtKind::Zero, 8));
  EXPECT_FALSE(defKnownExtendedStructural(*F, K255, T, ExtKind::Sign, 8));
  EXPECT_TRUE(defKnownExtendedStructural(*F, K255, T, ExtKind::Sign, 9));

  B.constI32(-1, "m");
  const Instruction &Km1 = lastIn(*F);
  EXPECT_TRUE(defKnownExtendedStructural(*F, Km1, T, ExtKind::Sign, 1));
  EXPECT_FALSE(defKnownExtendedStructural(*F, Km1, T, ExtKind::Zero, 32));
}

TEST(ConversionFactsTest, CanonicalExtOfRegisterTypes) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg I = F->addParam(Type::I32, "i");
  Reg C = F->addParam(Type::U16, "c");
  Reg By = F->addParam(Type::I8, "b");
  Reg L = F->addParam(Type::I64, "l");

  EXPECT_EQ(canonicalRegExt(*F, I).Kind, ExtKind::Sign);
  EXPECT_EQ(canonicalRegBits(*F, I), 32u);
  EXPECT_EQ(canonicalRegExt(*F, C).Kind, ExtKind::Zero);
  EXPECT_EQ(canonicalRegBits(*F, C), 16u);
  EXPECT_EQ(canonicalConversionOpcode(*F, C), Opcode::Zext16);
  EXPECT_EQ(canonicalConversionOpcode(*F, By), Opcode::Sext8);
  EXPECT_EQ(canonicalConversionOpcode(*F, I), Opcode::Sext32);
  EXPECT_EQ(canonicalRegBits(*F, L), 0u);
}

//===----------------------------------------------------------------------===//
// x86-64: implicit zero extension of every 32-bit result.
//===----------------------------------------------------------------------===//

TEST(ConversionFactsTest, X8664FlipsKindOfCanonicalIntProducers) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  const TargetInfo &IA64 = TargetInfo::ia64();
  const TargetInfo &X86 = TargetInfo::x86_64();

  // div32 produces a canonical Java int: sign-extended where the machine
  // writes full registers, zero-extended where 32-bit writes clear the
  // upper half.
  B.div32(P, P, "q");
  const Instruction &Div = lastIn(*F);
  EXPECT_TRUE(defKnownExtendedStructural(*F, Div, IA64, ExtKind::Sign, 32));
  EXPECT_FALSE(defKnownExtendedStructural(*F, Div, IA64, ExtKind::Zero, 32));
  EXPECT_TRUE(defKnownExtendedStructural(*F, Div, X86, ExtKind::Zero, 32));
  EXPECT_FALSE(defKnownExtendedStructural(*F, Div, X86, ExtKind::Sign, 32));

  B.sar32(P, P, "s");
  const Instruction &Sar = lastIn(*F);
  EXPECT_TRUE(defKnownExtendedStructural(*F, Sar, IA64, ExtKind::Sign, 32));
  EXPECT_TRUE(defKnownExtendedStructural(*F, Sar, X86, ExtKind::Zero, 32));
  EXPECT_FALSE(defKnownExtendedStructural(*F, Sar, X86, ExtKind::Sign, 32));

  Reg D = B.i2d(P, "d");
  B.d2i(D, "n");
  const Instruction &D2I = lastIn(*F);
  EXPECT_TRUE(defKnownExtendedStructural(*F, D2I, IA64, ExtKind::Sign, 32));
  EXPECT_TRUE(defKnownExtendedStructural(*F, D2I, X86, ExtKind::Zero, 32));
  EXPECT_FALSE(defKnownExtendedStructural(*F, D2I, X86, ExtKind::Sign, 32));

  // shr32 is an unsigned extract on every target.
  B.shr32(P, P, "u");
  const Instruction &Shr = lastIn(*F);
  EXPECT_TRUE(defKnownExtendedStructural(*F, Shr, IA64, ExtKind::Zero, 32));
  EXPECT_TRUE(defKnownExtendedStructural(*F, Shr, X86, ExtKind::Zero, 32));

  // A plain W32 add is nothing on IA64, but Zero@32 (and only Zero) on an
  // implicit-zero-extension target.
  B.add32(P, P, "a");
  const Instruction &Add = lastIn(*F);
  EXPECT_FALSE(defKnownExtendedStructural(*F, Add, IA64, ExtKind::Sign, 32));
  EXPECT_FALSE(defKnownExtendedStructural(*F, Add, IA64, ExtKind::Zero, 32));
  EXPECT_TRUE(defKnownExtendedStructural(*F, Add, X86, ExtKind::Zero, 32));
  EXPECT_FALSE(defKnownExtendedStructural(*F, Add, X86, ExtKind::Sign, 32));
}

TEST(ConversionFactsTest, X8664MakesW32UsesCaseOne) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  B.add32(P, P, "a");
  const Instruction &Add = lastIn(*F);

  // On IA64 the operand's upper bits flow physically into the destination
  // register: pass-through (Case 2), not irrelevant (Case 1).
  EXPECT_FALSE(
      upperBitsIrrelevant(*F, Add, 0, 32, &TargetInfo::ia64()));
  EXPECT_TRUE(passThroughOperand(*F, Add, 0, 32));
  // On x86-64 the 32-bit write clears bits 63:32: the influence chain ends.
  EXPECT_TRUE(
      upperBitsIrrelevant(*F, Add, 0, 32, &TargetInfo::x86_64()));

  // 8/16-bit conversions fix data bits of a W32 add on every target.
  EXPECT_FALSE(
      upperBitsIrrelevant(*F, Add, 0, 16, &TargetInfo::x86_64()));
  EXPECT_FALSE(passThroughOperand(*F, Add, 0, 16));
}

TEST(ConversionFactsTest, NarrowStoresIrrelevantAtElementWidth) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg A = F->addParam(Type::ArrayRef, "a");
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  B.arrayStore(Type::U16, A, Zero, P);
  const Instruction &St = lastIn(*F);

  // The stored value only contributes its low 16 bits...
  EXPECT_TRUE(upperBitsIrrelevant(*F, St, 2, 16, &TargetInfo::ia64()));
  EXPECT_FALSE(upperBitsIrrelevant(*F, St, 2, 8, &TargetInfo::ia64()));
  // ...but the index feeds the effective address and is never irrelevant.
  EXPECT_FALSE(upperBitsIrrelevant(*F, St, 1, 32, &TargetInfo::ia64()));
}

//===----------------------------------------------------------------------===//
// Propagation (AnalyzeDEF Case 2) by kind.
//===----------------------------------------------------------------------===//

TEST(ConversionFactsTest, BitwisePropagationSplitsByKindAndTarget) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  B.and32(P, P, "j");
  const Instruction &And = lastIn(*F);
  const TargetInfo &IA64 = TargetInfo::ia64();
  const TargetInfo &X86 = TargetInfo::x86_64();

  std::vector<unsigned> Both = {0, 1};
  // Sign kind propagates through W32 bitwise ops where the machine writes
  // full registers, but not where the 32-bit write clears the upper half.
  EXPECT_EQ(defPropagatesExtension(*F, And, IA64, ExtKind::Sign, 32), Both);
  EXPECT_TRUE(defPropagatesExtension(*F, And, X86, ExtKind::Sign, 32).empty());
  // Zero kind propagates at any width on any target: zeros stay zeros.
  EXPECT_EQ(defPropagatesExtension(*F, And, IA64, ExtKind::Zero, 32), Both);
  EXPECT_EQ(defPropagatesExtension(*F, And, X86, ExtKind::Zero, 32), Both);
  EXPECT_EQ(defPropagatesExtension(*F, And, IA64, ExtKind::Zero, 8), Both);
}

TEST(ConversionFactsTest, ConversionPropagationByKindAndWidth) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  const TargetInfo &T = TargetInfo::ia64();
  std::vector<unsigned> Op0 = {0};

  B.sext(32, P, "s");
  const Instruction &S32 = lastIn(*F);
  // A wider sext preserves a narrower extension; the zero kind only
  // strictly below the conversion width (sext32 of a Zero@32 value can go
  // negative).
  EXPECT_EQ(defPropagatesExtension(*F, S32, T, ExtKind::Sign, 8), Op0);
  EXPECT_EQ(defPropagatesExtension(*F, S32, T, ExtKind::Zero, 16), Op0);
  EXPECT_TRUE(defPropagatesExtension(*F, S32, T, ExtKind::Zero, 32).empty());

  B.zext16(P, "c");
  const Instruction &Z16 = lastIn(*F);
  EXPECT_EQ(defPropagatesExtension(*F, Z16, T, ExtKind::Zero, 16), Op0);
  EXPECT_EQ(defPropagatesExtension(*F, Z16, T, ExtKind::Zero, 8), Op0);
  // Masking a negative sign-extended value plants ones in the middle bits.
  EXPECT_TRUE(defPropagatesExtension(*F, Z16, T, ExtKind::Sign, 16).empty());
}

//===----------------------------------------------------------------------===//
// Elimination of zero extensions and truncations.
//===----------------------------------------------------------------------===//

TEST(ConversionEliminationTest, RedundantCharRecanonicalizationDies) {
  // A char load is zero-extended on every modeled target, so re-canonicalizing
  // it with zext16 is redundant even though the i2d is a requiring use.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::F64);
  Reg A = F->addParam(Type::ArrayRef, "a");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Zero = B.constI32(0);
  Reg V = B.arrayLoad(Type::U16, A, Zero, "v");
  B.zextTo(V, 16, V); // Candidate: redundant (char)-cast.
  Reg D = B.i2d(V, "d");
  B.ret(D);
  ASSERT_TRUE(moduleVerifies(*M));

  EliminationStats S = eliminateBasic(*F);
  EXPECT_EQ(S.Eliminated, 1u);
  EXPECT_EQ(S.EliminatedZext, 1u);
  EXPECT_EQ(S.EliminatedSext, 0u);
  EXPECT_EQ(S.EliminatedTrunc, 0u);
  EXPECT_EQ(countOpcode(*F, Opcode::Zext16), 0u);
}

TEST(ConversionEliminationTest, GarbageCharStaysCanonicalized) {
  // A char variable written from a W32 add (garbage upper bits) really
  // needs its (char) cast before a requiring use.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::F64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg X = B.add32(P, P, "x");
  Reg C = F->newReg(Type::U16, "c");
  B.copyTo(C, X);
  B.zextTo(C, 16, C); // Candidate: must stay.
  Reg D = B.i2d(C, "d");
  B.ret(D);
  ASSERT_TRUE(moduleVerifies(*M));

  EliminationStats S = eliminateBasic(*F);
  EXPECT_EQ(S.Eliminated, 0u);
  EXPECT_EQ(countOpcode(*F, Opcode::Zext16), 1u);
}

TEST(ConversionEliminationTest, TruncOfZeroExtendedValueBecomesCopy) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Z = B.zext32(P, "z"); // Zero@32 by construction.
  Reg T = F->newReg(Type::I64, "t");
  B.trunc32To(T, Z); // Candidate: the narrowing is an identity.
  Reg S2 = B.add64(T, Z, "s");
  B.ret(S2);
  ASSERT_TRUE(moduleVerifies(*M));

  EliminationStats S = eliminateBasic(*F);
  EXPECT_EQ(S.EliminatedTrunc, 1u);
  EXPECT_EQ(countOpcode(*F, Opcode::Trunc32), 0u);
}

TEST(ConversionEliminationTest, TruncOfArbitraryLongIsARealNarrowing) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg L = F->addParam(Type::I64, "l");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg T = F->newReg(Type::I64, "t");
  B.trunc32To(T, L); // Candidate: must stay (l can exceed 2^32).
  Reg S2 = B.add64(T, L, "s");
  B.ret(S2);
  ASSERT_TRUE(moduleVerifies(*M));

  EliminationStats S = eliminateBasic(*F);
  EXPECT_EQ(S.EliminatedTrunc, 0u);
  EXPECT_EQ(countOpcode(*F, Opcode::Trunc32), 1u);
}

TEST(ConversionEliminationTest, X8664EliminatesSextAfterW32Arith) {
  // The headline x86-64 win: a W32 result is already Zero@32, hence
  // Sign@33+... but a sext32 candidate asks for Sign@32, which implicit
  // zero extension alone cannot prove. A shr32 result, however, is
  // Zero@32 on every target, and a *zext32* of it dies on all of them;
  // the x86-only win is the zext32 of a plain add result.
  auto build = [] {
    auto M = std::make_unique<Module>("m");
    Function *F = M->createFunction("f", Type::I64);
    Reg P = F->addParam(Type::I32, "p");
    IRBuilder B(F);
    B.startBlock("entry");
    Reg X = B.add32(P, P, "x");
    Reg W = B.zext32(X, "w"); // Candidate: redundant only on x86-64.
    B.ret(W);
    return M;
  };

  auto OnIA64 = build();
  EliminationStats S1 = eliminateBasic(*OnIA64->findFunction("f"),
                                       TargetInfo::ia64());
  EXPECT_EQ(S1.EliminatedZext, 0u);

  auto OnX86 = build();
  EliminationStats S2 = eliminateBasic(*OnX86->findFunction("f"),
                                       TargetInfo::x86_64());
  EXPECT_EQ(S2.EliminatedZext, 1u);
  EXPECT_EQ(countOpcode(*OnX86->findFunction("f"), Opcode::Zext32), 0u);
}

//===----------------------------------------------------------------------===//
// Verifier: conversions must be canonical for their destination type.
//===----------------------------------------------------------------------===//

bool verifyExpecting(const Module &M, const char *Fragment) {
  std::vector<std::string> Problems;
  if (verifyModule(M, Problems))
    return false;
  for (const std::string &P : Problems)
    if (P.find(Fragment) != std::string::npos)
      return true;
  ADD_FAILURE() << "verifier failed, but not with '" << Fragment
                << "': " << Problems.front();
  return false;
}

TEST(ConversionVerifierTest, RejectsTruncIntoSignedIntRegister) {
  // trunc32 can produce 0xFFFFFFFF, which is not a canonical I32 value.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg L = F->addParam(Type::I64, "l");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg D = F->newReg(Type::I32, "d");
  B.trunc32To(D, L);
  B.ret(L);
  EXPECT_TRUE(verifyExpecting(*M, "not canonical"));
}

TEST(ConversionVerifierTest, RejectsZextIntoSameWidthSignedRegister) {
  // zext16 can produce 0x8000..0xFFFF: Zero@16 fits I16 (Sign@16) only
  // strictly wider, so an I16 destination is ill-typed.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg P = F->addParam(Type::I32, "p");
  Reg L = F->addParam(Type::I64, "l");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg D = F->newReg(Type::I16, "d");
  B.zextTo(D, 16, P);
  B.ret(L);
  EXPECT_TRUE(verifyExpecting(*M, "not canonical"));
}

TEST(ConversionVerifierTest, RejectsSextIntoCharRegister) {
  // sext16 can produce a negative value; a char register is never negative.
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg P = F->addParam(Type::I32, "p");
  Reg L = F->addParam(Type::I64, "l");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg D = F->newReg(Type::U16, "d");
  B.sextTo(D, 16, P);
  B.ret(L);
  EXPECT_TRUE(verifyExpecting(*M, "not canonical"));
}

TEST(ConversionVerifierTest, AcceptsCanonicalConversionDestinations) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I64);
  Reg P = F->addParam(Type::I32, "p");
  Reg L = F->addParam(Type::I64, "l");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg C = F->newReg(Type::U16, "c");
  B.zextTo(C, 16, P);        // Char destination: exact.
  Reg W = F->newReg(Type::I32, "w");
  B.zextTo(W, 8, P);         // [0,255] fits a signed int.
  Reg N = F->newReg(Type::I16, "n");
  B.sextTo(N, 8, P);         // Sign@8 fits Sign@16.
  Reg T = F->newReg(Type::I64, "t");
  B.trunc32To(T, L);         // Full-width destination: anything goes.
  B.ret(L);
  EXPECT_TRUE(moduleVerifies(*M));
}

//===----------------------------------------------------------------------===//
// Unsigned edge cases: Java-oracle parity across every variant and target.
//===----------------------------------------------------------------------===//

/// A handcrafted module packing the unsigned edge cases into one checksum:
/// zext of negative-looking bit patterns, trunc32 of values exceeding 2^32,
/// unsigned compares after zero extension, and values routed through long[]
/// and char[] memory.
std::unique_ptr<Module> buildUnsignedEdgeModule() {
  auto M = std::make_unique<Module>("unsigned_edges");
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder B(F);
  B.startBlock("entry");

  Reg Sum = B.constI64(0, "sum");

  // (char)-1 == 0xFFFF and (-1 & 0xFF) == 255: zero extension of all-ones.
  Reg MinusOne = B.constI32(-1, "m1");
  Reg CharAll = B.zext16(MinusOne, "c_all");
  Reg ByteAll = B.zext8(MinusOne, "b_all");
  Sum = B.add64(Sum, B.zext32(CharAll, "c64"), "sum");
  Sum = B.add64(Sum, B.zext32(ByteAll, "b64"), "sum");

  // trunc32 of values exceeding 2^32, including one with bit 31 set.
  Reg BigLow = B.constI64((int64_t(1) << 40) + 123, "big_low");
  Sum = B.add64(Sum, B.trunc32(BigLow, "t_low"), "sum");
  Reg BigHigh = B.constI64(int64_t(0x1CAFEBABE9), "big_high");
  Sum = B.add64(Sum, B.trunc32(BigHigh, "t_high"), "sum");

  // Unsigned compares over sign-set patterns: 0xFFFFFFFF is unsigned-max,
  // 0xFFFF is larger than 255 only unsigned.
  Reg Three = B.constI32(3, "three");
  Reg C1 = B.cmp32(CmpPred::ULT, MinusOne, Three, "ult"); // 0
  Reg C2 = B.cmp32(CmpPred::UGE, MinusOne, Three, "uge"); // 1
  Reg C3 = B.cmp32(CmpPred::UGT, CharAll, ByteAll, "ugt"); // 1
  Sum = B.add64(Sum, B.zext32(C1, "c1w"), "sum");
  Sum = B.add64(Sum, B.zext32(C2, "c2w"), "sum");
  Sum = B.add64(Sum, B.zext32(C3, "c3w"), "sum");

  // Route operands through memory: a long[] round trip past 2^32, and a
  // char[] round trip of the all-ones char.
  Reg Len = B.constI32(8, "len");
  Reg Idx = B.constI32(3, "idx");
  Reg Wide = B.newArray(Type::I64, Len, "wide");
  B.arrayStore(Type::I64, Wide, Idx, Sum);
  Reg Re = B.arrayLoad(Type::I64, Wide, Idx, "re");
  Sum = B.add64(Sum, B.trunc32(Re, "t_mem"), "sum");

  Reg Chars = B.newArray(Type::U16, Len, "chars");
  B.arrayStore(Type::U16, Chars, Idx, CharAll);
  Reg Rc = B.arrayLoad(Type::U16, Chars, Idx, "rc");
  Reg Half = B.constI32(0x7FFF, "half");
  Reg C4 = B.cmp32(CmpPred::UGT, Rc, Half, "mem_ugt"); // 1
  Sum = B.add64(Sum, B.zext32(C4, "c4w"), "sum");

  B.ret(Sum);
  return M;
}

TEST(ConversionParityTest, UnsignedEdgeCasesMatchOracleEverywhere) {
  std::unique_ptr<Module> M = buildUnsignedEdgeModule();
  ASSERT_TRUE(moduleVerifies(*M));

  // All twelve variants x all four targets against the Java oracle.
  DiffResult R = runDifferentialTest(*M);
  EXPECT_EQ(R.OracleTrap, TrapKind::None);
  EXPECT_TRUE(R.ok()) << (R.Failure ? R.Failure->describe() : "");
}

TEST(ConversionParityTest, PristineMachineSemanticsMatchOracle) {
  // Even before any pipeline runs, the explicit-cast discipline makes the
  // pristine module's machine execution agree with Java semantics on every
  // target, including the implicit-zero-extension one.
  std::unique_ptr<Module> M = buildUnsignedEdgeModule();
  ASSERT_TRUE(moduleVerifies(*M));

  InterpOptions Java;
  Java.Semantics = ExecSemantics::Java;
  ExecResult Oracle = Interpreter(*M, Java).run("main");
  ASSERT_EQ(Oracle.Trap, TrapKind::None);

  for (const TargetInfo *T :
       {&TargetInfo::ia64(), &TargetInfo::ppc64(), &TargetInfo::generic64(),
        &TargetInfo::x86_64()}) {
    InterpOptions Machine;
    Machine.Target = T;
    ExecResult Got = Interpreter(*M, Machine).run("main");
    EXPECT_EQ(Got.Trap, TrapKind::None) << T->name();
    EXPECT_EQ(Got.ReturnValue, Oracle.ReturnValue) << T->name();
  }
}

//===----------------------------------------------------------------------===//
// Generalized conversion census: the pipeline never adds conversions.
//===----------------------------------------------------------------------===//

TEST(ConversionCensusTest, PipelineNeverIncreasesConversionCensus) {
  for (const TargetInfo *T :
       {&TargetInfo::ia64(), &TargetInfo::ppc64(), &TargetInfo::generic64(),
        &TargetInfo::x86_64()}) {
    std::unique_ptr<Module> Pristine = buildUnsignedEdgeModule();

    auto Base = cloneModule(*Pristine);
    runInstrumentedPipeline(*Base,
                            PipelineConfig::forVariant(Variant::Baseline, *T));
    auto All = cloneModule(*Pristine);
    runInstrumentedPipeline(*All,
                            PipelineConfig::forVariant(Variant::All, *T));

    EXPECT_TRUE(moduleVerifies(*All, /*AllowDummies=*/false)) << T->name();
    EXPECT_LE(countStaticExtensions(*All).totalConversions(),
              countStaticExtensions(*Base).totalConversions())
        << T->name();
  }
}

} // namespace
