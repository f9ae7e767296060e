//===- tests/target_test.cpp - Target model, cost model, static census ------------===//

#include "ir/IRBuilder.h"
#include "sxe/Pipeline.h"
#include "target/CostModel.h"
#include "target/StaticCounts.h"
#include "target/TargetInfo.h"

#include <gtest/gtest.h>

using namespace sxe;

namespace {

//===----------------------------------------------------------------------===//
// TargetInfo matrices
//===----------------------------------------------------------------------===//

TEST(TargetInfoTest, Singletons) {
  // Pointer identity is meaningful: passes and the interpreter compare
  // TargetInfo pointers to agree on the machine model.
  EXPECT_EQ(&TargetInfo::ia64(), &TargetInfo::ia64());
  EXPECT_EQ(&TargetInfo::ppc64(), &TargetInfo::ppc64());
  EXPECT_EQ(&TargetInfo::generic64(), &TargetInfo::generic64());
  EXPECT_NE(&TargetInfo::ia64(), &TargetInfo::ppc64());
  EXPECT_NE(&TargetInfo::ia64(), &TargetInfo::generic64());

  EXPECT_EQ(TargetInfo::ia64().name(), "ia64");
  EXPECT_EQ(TargetInfo::ppc64().name(), "ppc64");
  EXPECT_EQ(TargetInfo::generic64().name(), "generic64");

  EXPECT_EQ(TargetInfo::ia64().pointerWidthBits(), 64u);
  EXPECT_EQ(TargetInfo::ppc64().pointerWidthBits(), 64u);
  EXPECT_EQ(TargetInfo::generic64().pointerWidthBits(), 64u);
}

TEST(TargetInfoTest, LoadSignExtensionMatrix) {
  const TargetInfo &IA64 = TargetInfo::ia64();
  const TargetInfo &PPC = TargetInfo::ppc64();
  const TargetInfo &Gen = TargetInfo::generic64();

  // Byte and char loads zero-extend on every modeled target (PPC64 has no
  // sign-extending byte load; Java char is unsigned by definition).
  for (const TargetInfo *T : {&IA64, &PPC, &Gen}) {
    EXPECT_FALSE(T->loadSignExtends(Type::I8)) << T->name();
    EXPECT_FALSE(T->loadSignExtends(Type::U16)) << T->name();
    // Full-width loads fill the register; the question does not arise.
    EXPECT_FALSE(T->loadSignExtends(Type::I64)) << T->name();
    EXPECT_FALSE(T->loadSignExtends(Type::F64)) << T->name();
    EXPECT_FALSE(T->loadSignExtends(Type::ArrayRef)) << T->name();
  }

  // IA64 zero-extends every sub-register load ("values are zero-extended
  // during memory reads") — the premise of Theorems 1 and 3.
  EXPECT_FALSE(IA64.loadSignExtends(Type::I16));
  EXPECT_FALSE(IA64.loadSignExtends(Type::I32));

  // PPC64's lha/lwa sign-extend — the paper's Section 1 contrast, and the
  // ISSUE acceptance assertion.
  EXPECT_TRUE(PPC.loadSignExtends(Type::I16));
  EXPECT_TRUE(PPC.loadSignExtends(Type::I32));

  // generic64 behaves like IA64 for memory.
  EXPECT_FALSE(Gen.loadSignExtends(Type::I16));
  EXPECT_FALSE(Gen.loadSignExtends(Type::I32));
}

TEST(TargetInfoTest, CompareAndAddressingMatrix) {
  // IA64 cmp4 and PPC64 cmpw exist; generic64 models Section 3's machine
  // without 32-bit compares, where bounds checks need canonical operands.
  EXPECT_TRUE(TargetInfo::ia64().has32BitCompare());
  EXPECT_TRUE(TargetInfo::ppc64().has32BitCompare());
  EXPECT_FALSE(TargetInfo::generic64().has32BitCompare());

  // shladd fuses scale+add on IA64; PPC64/generic64 shift then add.
  const AddressingMode &IA = TargetInfo::ia64().addressing();
  const AddressingMode &PA = TargetInfo::ppc64().addressing();
  const AddressingMode &GA = TargetInfo::generic64().addressing();
  EXPECT_TRUE(IA.FusedScaleAdd);
  EXPECT_FALSE(PA.FusedScaleAdd);
  EXPECT_FALSE(GA.FusedScaleAdd);
  EXPECT_LT(IA.AddressCycles, PA.AddressCycles);
  EXPECT_EQ(PA.AddressCycles, GA.AddressCycles);
}

//===----------------------------------------------------------------------===//
// Cost model
//===----------------------------------------------------------------------===//

/// Builds one of each interesting instruction in a scratch function.
struct CostFixture {
  std::unique_ptr<Module> M{std::make_unique<Module>("m")};
  Function *F{M->createFunction("f", Type::I32)};
  Reg P{F->addParam(Type::I32, "p")};
  Reg A{F->addParam(Type::ArrayRef, "a")};
  IRBuilder B{F};

  CostFixture() { B.startBlock("entry"); }

  const Instruction &last() { return F->entryBlock()->back(); }
};

TEST(CostModelTest, MonotonicityAcrossOpcodes) {
  CostFixture Fx;
  auto &B = Fx.B;

  B.add32(Fx.P, Fx.P);
  const Instruction &Add = Fx.last();
  B.mul32(Fx.P, Fx.P);
  const Instruction &Mul = Fx.last();
  B.div32(Fx.P, Fx.P);
  const Instruction &Div = Fx.last();
  B.arrayLoad(Type::I32, Fx.A, Fx.P);
  const Instruction &Load = Fx.last();
  B.arrayStore(Type::I32, Fx.A, Fx.P, Fx.P);
  const Instruction &Store = Fx.last();
  B.sext(32, Fx.P);
  const Instruction &Sext = Fx.last();

  for (const TargetInfo *T :
       {&TargetInfo::ia64(), &TargetInfo::ppc64(), &TargetInfo::generic64()}) {
    // The extension the optimization removes costs exactly one ALU cycle.
    EXPECT_EQ(instructionCycleCost(Sext, *T), 1u) << T->name();
    EXPECT_EQ(instructionCycleCost(Add, *T), 1u) << T->name();
    // div > load > 0, and a multiply sits strictly between ALU and divide.
    EXPECT_GT(instructionCycleCost(Load, *T), 0u) << T->name();
    EXPECT_GT(instructionCycleCost(Div, *T), instructionCycleCost(Load, *T))
        << T->name();
    EXPECT_GT(instructionCycleCost(Mul, *T), instructionCycleCost(Add, *T))
        << T->name();
    EXPECT_GT(instructionCycleCost(Div, *T), instructionCycleCost(Mul, *T))
        << T->name();
    // Stores pay the same bounds check and addressing as loads.
    EXPECT_GT(instructionCycleCost(Store, *T), 0u) << T->name();
  }
}

TEST(CostModelTest, AddressingAsymmetry) {
  CostFixture Fx;
  Fx.B.arrayLoad(Type::I32, Fx.A, Fx.P);
  const Instruction &Load = Fx.last();
  Fx.B.arrayStore(Type::I32, Fx.A, Fx.P, Fx.P);
  const Instruction &Store = Fx.last();

  // The ISSUE acceptance assertion: shladd makes IA64's array access
  // cheaper than PPC64's separate shift+add.
  EXPECT_LT(instructionCycleCost(Load, TargetInfo::ia64()),
            instructionCycleCost(Load, TargetInfo::ppc64()));
  EXPECT_LT(instructionCycleCost(Store, TargetInfo::ia64()),
            instructionCycleCost(Store, TargetInfo::ppc64()));
  // Exactly the fused-vs-separate address cycle accounts for the gap.
  EXPECT_EQ(instructionCycleCost(Load, TargetInfo::ppc64()) -
                instructionCycleCost(Load, TargetInfo::ia64()),
            TargetInfo::ppc64().addressing().AddressCycles -
                TargetInfo::ia64().addressing().AddressCycles);
}

TEST(CostModelTest, DummiesAreFree) {
  CostFixture Fx;
  Instruction Dummy(Opcode::JustExtended);
  Dummy.setDest(Fx.P);
  Dummy.addOperand(Fx.P);
  EXPECT_EQ(instructionCycleCost(Dummy, TargetInfo::ia64()), 0u);
  EXPECT_EQ(instructionCycleCost(Dummy, TargetInfo::ppc64()), 0u);
  EXPECT_EQ(instructionCycleCost(Dummy, TargetInfo::generic64()), 0u);
}

//===----------------------------------------------------------------------===//
// Static extension census
//===----------------------------------------------------------------------===//

TEST(StaticCountsTest, HandBuiltCensus) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");

  // Known census: 1 sext8, 2 sext16, 3 sext32, 1 zext32, 2 dummies.
  B.sext(8, P);
  B.sext(16, P);
  B.sext(16, P);
  Reg S1 = B.sext(32, P);
  B.sext(32, P);
  B.sext(32, P);
  B.zext32(P);
  for (int K = 0; K < 2; ++K) {
    Instruction *Dummy = F->newInstruction(Opcode::JustExtended);
    Dummy->setDest(P);
    Dummy->addOperand(P);
    F->entryBlock()->append(Dummy);
  }
  B.add32(P, P); // Non-extension noise must not be counted.
  B.ret(S1);

  StaticExtensionCounts Counts = countStaticExtensions(*F);
  EXPECT_EQ(Counts.Sext8, 1u);
  EXPECT_EQ(Counts.Sext16, 2u);
  EXPECT_EQ(Counts.Sext32, 3u);
  EXPECT_EQ(Counts.Zext32, 1u);
  EXPECT_EQ(Counts.Dummies, 2u);
  EXPECT_EQ(Counts.totalSext(), 6u);
}

TEST(StaticCountsTest, ModuleAggregatesFunctions) {
  auto M = std::make_unique<Module>("m");
  for (const char *Name : {"f", "g"}) {
    Function *F = M->createFunction(Name, Type::I32);
    Reg P = F->addParam(Type::I32, "p");
    IRBuilder B(F);
    B.startBlock("entry");
    Reg S = B.sext(32, P);
    B.ret(S);
  }
  StaticExtensionCounts Counts = countStaticExtensions(*M);
  EXPECT_EQ(Counts.Sext32, 2u);
  EXPECT_EQ(Counts.totalSext(), 2u);
  EXPECT_EQ(Counts.Dummies, 0u);
}

TEST(StaticCountsTest, EmptyFunctionCountsZero) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::Void);
  IRBuilder B(F);
  B.startBlock("entry");
  B.retVoid();
  StaticExtensionCounts Counts = countStaticExtensions(*F);
  EXPECT_EQ(Counts.totalSext(), 0u);
  EXPECT_EQ(Counts.Zext32, 0u);
  EXPECT_EQ(Counts.Dummies, 0u);
}

TEST(NameTablesTest, TargetAndVariantNamesRoundTrip) {
  for (const TargetInfo *T : {&TargetInfo::ia64(), &TargetInfo::ppc64(),
                              &TargetInfo::generic64(),
                              &TargetInfo::x86_64()})
    EXPECT_EQ(T, TargetInfo::byName(T->name())) << T->name();
  EXPECT_EQ(nullptr, TargetInfo::byName("x86"));
  EXPECT_EQ(nullptr, TargetInfo::byName(""));

  // Every row label the paper's tables print resolves to its own row.
  for (Variant V : AllVariants) {
    Variant Back = V == Variant::All ? Variant::Baseline : Variant::All;
    ASSERT_TRUE(variantByName(variantName(V), Back)) << variantName(V);
    EXPECT_EQ(V, Back) << variantName(V);
  }
  const std::pair<const char *, Variant> Shorthands[] = {
      {"all", Variant::All},
      {"baseline", Variant::Baseline},
      {"first", Variant::FirstAlgorithm},
      {"basic", Variant::BasicUdDu},
      {"array", Variant::Array},
  };
  for (const auto &[Name, Expected] : Shorthands) {
    Variant Back = Variant::GenUse;
    ASSERT_TRUE(variantByName(Name, Back)) << Name;
    EXPECT_EQ(Expected, Back) << Name;
  }
  Variant Untouched = Variant::Order;
  EXPECT_FALSE(variantByName("new algorithm", Untouched));
  EXPECT_FALSE(variantByName("", Untouched));
  EXPECT_EQ(Variant::Order, Untouched);
}

} // namespace
