//===- tests/verifier_test.cpp - Verifier negative-case battery -----------------===//
//
// Each case builds an almost-valid function, corrupts one property, and
// checks that the verifier reports it (the interpreter refuses to run
// anything the verifier rejects, so these are the process's safety net).
//
//===---------------------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace sxe;

namespace {

struct Fixture {
  std::unique_ptr<Module> M{std::make_unique<Module>("m")};
  Function *F{M->createFunction("f", Type::I32)};
  Reg IntP{F->addParam(Type::I32, "p")};
  Reg ArrP{F->addParam(Type::ArrayRef, "a")};
  Reg DblP{F->addParam(Type::F64, "d")};
  IRBuilder B{F};

  Fixture() { B.startBlock("entry"); }

  ::testing::AssertionResult rejected(const char *Fragment) {
    std::vector<std::string> Problems;
    if (verifyModule(*M, Problems))
      return ::testing::AssertionFailure() << "verifier accepted";
    for (const std::string &P : Problems)
      if (P.find(Fragment) != std::string::npos)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "no problem mentions '" << Fragment << "'; first: "
           << Problems.front();
  }
};

TEST(VerifierNegativeTest, TerminatorInMiddle) {
  Fixture Fx;
  Fx.B.ret(Fx.IntP);
  Fx.B.ret(Fx.IntP); // Second terminator after the first.
  EXPECT_TRUE(Fx.rejected("terminator in the middle"));
}

TEST(VerifierNegativeTest, OperandRegisterOutOfRange) {
  Fixture Fx;
  Reg X = Fx.B.add32(Fx.IntP, Fx.IntP);
  Fx.B.ret(X);
  for (Instruction &I : *Fx.F->entryBlock())
    if (I.opcode() == Opcode::Add)
      I.setOperand(1, 12345);
  EXPECT_TRUE(Fx.rejected("out of range"));
}

TEST(VerifierNegativeTest, ArrayLoadFromNonArray) {
  Fixture Fx;
  Instruction *Inst = Fx.F->newInstruction(Opcode::ArrayLoad);
  Inst->setType(Type::I32);
  Inst->setDest(Fx.F->newReg(Type::I32));
  Inst->addOperand(Fx.IntP); // Should be an arrayref.
  Inst->addOperand(Fx.IntP);
  Fx.F->entryBlock()->append(Inst);
  Fx.B.ret(Fx.IntP);
  EXPECT_TRUE(Fx.rejected("arrayref"));
}

TEST(VerifierNegativeTest, FloatIntoIntegerOp) {
  Fixture Fx;
  Instruction *Inst = Fx.F->newInstruction(Opcode::Add);
  Inst->setWidth(Width::W32);
  Inst->setDest(Fx.F->newReg(Type::I32));
  Inst->addOperand(Fx.IntP);
  Inst->addOperand(Fx.DblP); // f64 into an integer add.
  Fx.F->entryBlock()->append(Inst);
  Fx.B.ret(Fx.IntP);
  EXPECT_TRUE(Fx.rejected("integer register"));
}

TEST(VerifierNegativeTest, CallArityMismatch) {
  Fixture Fx;
  Function *Callee = Fx.M->createFunction("g", Type::I32);
  {
    Reg Q = Callee->addParam(Type::I32, "q");
    IRBuilder CB(Callee);
    CB.startBlock("entry");
    CB.ret(Q);
  }
  // Call with zero arguments against a one-parameter callee.
  Instruction *Inst = Fx.F->newInstruction(Opcode::Call);
  Inst->setCallee(Callee);
  Inst->setDest(Fx.F->newReg(Type::I32));
  Fx.F->entryBlock()->append(Inst);
  Fx.B.ret(Fx.IntP);
  EXPECT_TRUE(Fx.rejected("argument count"));
}

TEST(VerifierNegativeTest, CallArgumentClassMismatch) {
  Fixture Fx;
  Function *Callee = Fx.M->createFunction("g", Type::I32);
  {
    Reg Q = Callee->addParam(Type::I32, "q");
    IRBuilder CB(Callee);
    CB.startBlock("entry");
    CB.ret(Q);
  }
  Reg R = Fx.F->newReg(Type::I32, "r");
  Fx.B.callTo(R, Callee, {Fx.DblP}); // f64 into an int parameter.
  Fx.B.ret(R);
  EXPECT_TRUE(Fx.rejected("register class"));
}

TEST(VerifierNegativeTest, VoidFunctionReturningValue) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::Void);
  Reg P = F->addParam(Type::I32, "p");
  IRBuilder B(F);
  B.startBlock("entry");
  B.ret(P); // Void function returns a value.
  std::vector<std::string> Problems;
  EXPECT_FALSE(verifyModule(*M, Problems));
}

TEST(VerifierNegativeTest, NonVoidFunctionReturningNothing) {
  Fixture Fx;
  Fx.B.retVoid();
  EXPECT_TRUE(Fx.rejected("returns no value"));
}

TEST(VerifierNegativeTest, ReturnClassMismatch) {
  Fixture Fx;
  Fx.B.ret(Fx.DblP); // f64 out of an i32 function.
  EXPECT_TRUE(Fx.rejected("register class"));
}

TEST(VerifierNegativeTest, BranchConditionMustBeInteger) {
  Fixture Fx;
  BasicBlock *Next = Fx.F->createBlock("next");
  Instruction *Inst = Fx.F->newInstruction(Opcode::Br);
  Inst->addOperand(Fx.DblP);
  Inst->setSuccessor(0, Next);
  Inst->setSuccessor(1, Next);
  Fx.F->entryBlock()->append(Inst);
  Fx.B.setBlock(Next);
  Fx.B.ret(Fx.IntP);
  EXPECT_TRUE(Fx.rejected("integer register"));
}

TEST(VerifierNegativeTest, SuccessorFromAnotherFunction) {
  Fixture Fx;
  Function *Other = Fx.M->createFunction("other", Type::Void);
  BasicBlock *Foreign = nullptr;
  {
    IRBuilder OB(Other);
    Foreign = OB.startBlock("entry");
    OB.retVoid();
  }
  Instruction *Inst = Fx.F->newInstruction(Opcode::Jmp);
  Inst->setSuccessor(0, Foreign);
  Fx.F->entryBlock()->append(Inst);
  EXPECT_TRUE(Fx.rejected("another function"));
}

TEST(VerifierNegativeTest, NewArrayWithBadElementType) {
  Fixture Fx;
  Instruction *Inst = Fx.F->newInstruction(Opcode::NewArray);
  Inst->setType(Type::ArrayRef); // Arrays of arrays are not modeled.
  Inst->setDest(Fx.F->newReg(Type::ArrayRef));
  Inst->addOperand(Fx.IntP);
  Fx.F->entryBlock()->append(Inst);
  Fx.B.ret(Fx.IntP);
  EXPECT_TRUE(Fx.rejected("element type"));
}

TEST(VerifierNegativeTest, MissingDestination) {
  Fixture Fx;
  Instruction *Inst = Fx.F->newInstruction(Opcode::Add);
  Inst->setWidth(Width::W32);
  Inst->addOperand(Fx.IntP);
  Inst->addOperand(Fx.IntP);
  Fx.F->entryBlock()->append(Inst); // No dest set.
  Fx.B.ret(Fx.IntP);
  EXPECT_TRUE(Fx.rejected("destination"));
}

TEST(VerifierNegativeTest, WrongOperandCount) {
  Fixture Fx;
  Instruction *Inst = Fx.F->newInstruction(Opcode::Add);
  Inst->setWidth(Width::W32);
  Inst->setDest(Fx.F->newReg(Type::I32));
  Inst->addOperand(Fx.IntP); // Only one operand.
  Fx.F->entryBlock()->append(Inst);
  Fx.B.ret(Fx.IntP);
  EXPECT_TRUE(Fx.rejected("operand count"));
}

} // namespace
