//===- tests/runner_test.cpp - Workload harness tests ---------------------------===//

#include "codegen/NativeEngine.h"
#include "workloads/KernelBuilder.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

using namespace sxe;

namespace {

TEST(RegistryTest, SeventeenKernelsInPaperOrder) {
  const auto &All = allWorkloads();
  ASSERT_EQ(All.size(), 17u);
  EXPECT_STREQ(All.front().Name, "Numeric Sort");
  EXPECT_STREQ(All[9].Name, "LU Decom.");
  EXPECT_STREQ(All[10].Name, "mtrt");
  EXPECT_STREQ(All.back().Name, "javac");
  EXPECT_EQ(jbytemarkWorkloads().size(), 10u);
  EXPECT_EQ(specjvm98Workloads().size(), 7u);
  EXPECT_NE(findWorkload("compress"), nullptr);
  EXPECT_EQ(findWorkload("no such kernel"), nullptr);
}

TEST(RunnerTest, SubsetOfVariantsAndRowLookup) {
  const Workload *W = findWorkload("Fourier");
  ASSERT_NE(W, nullptr);
  RunnerOptions Options;
  Options.Variants = {Variant::Baseline, Variant::All};
  WorkloadReport Report = runWorkload(*W, Options);

  ASSERT_EQ(Report.Rows.size(), 2u);
  EXPECT_NE(Report.row(Variant::Baseline), nullptr);
  EXPECT_NE(Report.row(Variant::All), nullptr);
  EXPECT_EQ(Report.row(Variant::Array), nullptr);
  EXPECT_TRUE(Report.row(Variant::Baseline)->ChecksumOK);
  EXPECT_TRUE(Report.row(Variant::All)->ChecksumOK);
  EXPECT_EQ(Report.Name, "Fourier");
  EXPECT_EQ(Report.Suite, "jBYTEmark");
}

TEST(RunnerTest, NativeRowsRunOnTheHardware) {
  if (!NativeModule::hostSupported())
    GTEST_SKIP() << "host cannot execute emitted x86-64 code";
  const Workload *W = findWorkload("Numeric Sort");
  ASSERT_NE(W, nullptr);
  RunnerOptions Options;
  Options.Target = &TargetInfo::x86_64();
  Options.Native = true;
  Options.Variants = {Variant::Baseline, Variant::All};
  WorkloadReport Report = runWorkload(*W, Options);

  ASSERT_EQ(Report.Rows.size(), 2u);
  for (const VariantRow &Row : Report.Rows) {
    EXPECT_TRUE(Row.ChecksumOK) << variantName(Row.V);
    EXPECT_TRUE(Row.NativeExecuted) << variantName(Row.V);
    EXPECT_TRUE(Row.NativeChecksumOK) << variantName(Row.V);
  }
}

TEST(RunnerTest, ScaleGrowsTheWorkload) {
  const Workload *W = findWorkload("Bitfield");
  ASSERT_NE(W, nullptr);

  RunnerOptions Small;
  Small.Variants = {Variant::Baseline};
  WorkloadReport R1 = runWorkload(*W, Small);

  RunnerOptions Big = Small;
  Big.Params.Scale = 3;
  WorkloadReport R3 = runWorkload(*W, Big);

  EXPECT_GT(R3.row(Variant::Baseline)->Instructions,
            2 * R1.row(Variant::Baseline)->Instructions);
}

TEST(RunnerTest, ChecksumsAreDeterministic) {
  const Workload *W = findWorkload("IDEA");
  ASSERT_NE(W, nullptr);
  RunnerOptions Options;
  Options.Variants = {Variant::All};
  WorkloadReport A = runWorkload(*W, Options);
  WorkloadReport B = runWorkload(*W, Options);
  EXPECT_EQ(A.OracleChecksum, B.OracleChecksum);
  EXPECT_EQ(A.row(Variant::All)->DynamicSext32,
            B.row(Variant::All)->DynamicSext32);
}

TEST(KernelBuilderTest, ForUpCountsAndVerifies) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  KernelBuilder K(F);
  IRBuilder &B = K.ir();
  Reg Sum = K.varI64(0, "sum");
  Reg I = F->newReg(Type::I32, "i");
  K.forUpConst(I, 3, 11, [&] {
    Reg W = F->newReg(Type::I64, "w");
    B.copyTo(W, B.sext(32, I));
    B.binopTo(Sum, Opcode::Add, Width::W64, Sum, W);
  });
  B.ret(Sum);

  InterpOptions Options;
  Interpreter Interp(*M, Options);
  // 3+4+...+10 = 52.
  EXPECT_EQ(Interp.run("main").ReturnValue, 52u);
}

TEST(KernelBuilderTest, ForDownVisitsDescending) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  KernelBuilder K(F);
  IRBuilder &B = K.ir();
  // Record the first visited value: must be Hi-1.
  Reg First = K.varI32(-1, "first");
  Reg Count = K.varI64(0, "count");
  Reg I = F->newReg(Type::I32, "i");
  Reg Hi = B.constI32(5);
  Reg Lo = B.constI32(0);
  K.forDown(I, Hi, Lo, [&] {
    Reg Unset = B.cmp32(CmpPred::SLT, First, Lo);
    K.ifThen(Unset, [&] { B.copyTo(First, I); });
    Reg One = F->newReg(Type::I64, "one");
    B.constTo(One, 1);
    B.binopTo(Count, Opcode::Add, Width::W64, Count, One);
  });
  Reg F64v = F->newReg(Type::I64, "f64v");
  B.copyTo(F64v, B.sext(32, First));
  Reg Mixed = B.binop(Opcode::Mul, Width::W64, Count, B.constI64(100));
  Reg Out = B.binop(Opcode::Add, Width::W64, Mixed, F64v);
  B.ret(Out);

  InterpOptions Options;
  Interpreter Interp(*M, Options);
  // 5 iterations, first visited value 4 -> 504.
  EXPECT_EQ(Interp.run("main").ReturnValue, 504u);
}

TEST(KernelBuilderTest, FillLCGIsDeterministicAndInRange) {
  auto build = [] {
    auto M = std::make_unique<Module>("m");
    Function *F = M->createFunction("main", Type::I64);
    KernelBuilder K(F);
    IRBuilder &B = K.ir();
    Reg Len = B.constI32(64);
    Reg A = B.newArray(Type::I32, Len, "a");
    K.fillLCG(A, Len, 0xFEED);
    Reg Sum = K.varI64(0, "sum");
    Reg Bad = K.varI64(0, "bad");
    Reg I = F->newReg(Type::I32, "i");
    Reg Zero = B.constI32(0);
    K.forUp(I, Zero, Len, [&] {
      Reg V = B.arrayLoad(Type::I32, A, I);
      Reg Neg = B.cmp32(CmpPred::SLT, V, Zero);
      K.ifThen(Neg, [&] {
        Reg One = F->newReg(Type::I64, "one");
        B.constTo(One, 1);
        B.binopTo(Bad, Opcode::Add, Width::W64, Bad, One);
      });
      Reg W = F->newReg(Type::I64, "w");
      B.copyTo(W, B.sext(32, V));
      B.binopTo(Sum, Opcode::Add, Width::W64, Sum, W);
    });
    Reg Scaled = B.mul64(Bad, B.constI64(1ll << 40));
    B.ret(B.add64(Sum, Scaled));
    return M;
  };

  InterpOptions Options;
  uint64_t A = Interpreter(*build(), Options).run("main").ReturnValue;
  uint64_t B = Interpreter(*build(), Options).run("main").ReturnValue;
  EXPECT_EQ(A, B);
  // No negative values (the shr-based fill) -> the "bad" counter is 0.
  EXPECT_LT(A, 1ull << 40);
}

} // namespace
