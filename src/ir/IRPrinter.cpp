//===- ir/IRPrinter.cpp - Textual IR output --------------------------------===//

#include "ir/IRPrinter.h"

#include "support/Error.h"

#include <cstdio>
#include <sstream>

using namespace sxe;

std::string sxe::printableRegName(const Function &F, Reg R) {
  // Robust against corrupt IR: the verifier prints instructions while
  // complaining about them, including out-of-range register operands.
  if (R >= F.numRegs())
    return 'r' + std::to_string(R) + "<invalid>";
  // Declared names get a ".<N>" suffix so that duplicates ("i" in two
  // scopes) stay unique; unnamed registers use the canonical "r<N>".
  // Names that already carry the right suffix (a parsed module being
  // reprinted) are left alone so print -> parse -> print is a fixpoint.
  std::string Base = F.regName(R);
  std::string Suffix = '.' + std::to_string(R);
  if (Base == 'r' + std::to_string(R))
    return Base;
  if (Base.size() > Suffix.size() &&
      Base.compare(Base.size() - Suffix.size(), Suffix.size(), Suffix) == 0)
    return Base;
  return Base + Suffix;
}

namespace {

std::string regRef(const Function &F, Reg R) {
  return '%' + printableRegName(F, R);
}

std::string floatLiteral(double Value) {
  // Hex float round-trips exactly through strtod.
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%a", Value);
  return Buffer;
}

std::string widthSuffix(const Instruction &I) {
  return I.width() == Width::W32 ? ".w32" : ".w64";
}

} // namespace

std::string sxe::printInstruction(const Function &F, const Instruction &I) {
  std::ostringstream OS;
  if (I.hasDest())
    OS << regRef(F, I.dest()) << " = ";

  switch (I.opcode()) {
  case Opcode::ConstInt:
    OS << "const." << typeName(I.type()) << " " << I.intValue();
    return OS.str();
  case Opcode::ConstF64:
    OS << "fconst " << floatLiteral(I.floatValue());
    return OS.str();
  case Opcode::Cmp:
    OS << "cmp" << widthSuffix(I) << " " << cmpPredName(I.pred()) << " "
       << regRef(F, I.operand(0)) << ", " << regRef(F, I.operand(1));
    return OS.str();
  case Opcode::FCmp:
    OS << "fcmp " << cmpPredName(I.pred()) << " " << regRef(F, I.operand(0))
       << ", " << regRef(F, I.operand(1));
    return OS.str();
  case Opcode::Br:
    OS << "br " << regRef(F, I.operand(0)) << ", " << I.successor(0)->name()
       << ", " << I.successor(1)->name();
    return OS.str();
  case Opcode::Jmp:
    OS << "jmp " << I.successor(0)->name();
    return OS.str();
  case Opcode::Ret:
    OS << "ret";
    if (I.numOperands() == 1)
      OS << " " << regRef(F, I.operand(0));
    return OS.str();
  case Opcode::Call: {
    OS << "call @" << (I.callee() ? I.callee()->name() : "<null>") << "(";
    for (unsigned Index = 0; Index < I.numOperands(); ++Index) {
      if (Index != 0)
        OS << ", ";
      OS << regRef(F, I.operand(Index));
    }
    OS << ")";
    return OS.str();
  }
  case Opcode::NewArray:
    OS << "newarray." << typeName(I.type()) << " "
       << regRef(F, I.operand(0));
    return OS.str();
  case Opcode::ArrayLoad:
    OS << "arrayload." << typeName(I.type()) << " "
       << regRef(F, I.operand(0)) << ", " << regRef(F, I.operand(1));
    return OS.str();
  case Opcode::ArrayStore:
    OS << "arraystore." << typeName(I.type()) << " "
       << regRef(F, I.operand(0)) << ", " << regRef(F, I.operand(1)) << ", "
       << regRef(F, I.operand(2));
    return OS.str();
  default:
    break;
  }

  // Generic form: mnemonic[.width] op0, op1, ...
  OS << opcodeMnemonic(I.opcode());
  if (I.info().HasWidth)
    OS << widthSuffix(I);
  for (unsigned Index = 0; Index < I.numOperands(); ++Index)
    OS << (Index == 0 ? " " : ", ") << regRef(F, I.operand(Index));
  return OS.str();
}

std::string sxe::printFunction(const Function &F) {
  std::ostringstream OS;
  OS << "func @" << F.name() << "(";
  for (unsigned P = 0; P < F.numParams(); ++P) {
    if (P != 0)
      OS << ", ";
    OS << "%" << printableRegName(F, P) << ": " << typeName(F.regType(P));
  }
  OS << ") -> " << typeName(F.returnType()) << " {\n";
  for (Reg R = F.numParams(); R < F.numRegs(); ++R)
    OS << "  reg %" << printableRegName(F, R) << ": "
       << typeName(F.regType(R)) << "\n";
  for (const auto &BB : F.blocks()) {
    OS << BB->name() << ":\n";
    for (const Instruction &I : *BB)
      OS << "  " << printInstruction(F, I) << "\n";
  }
  OS << "}\n";
  return OS.str();
}

std::string sxe::printModule(const Module &M) {
  std::ostringstream OS;
  OS << "module \"" << M.name() << "\"\n";
  for (const auto &F : M.functions())
    OS << "\n" << printFunction(*F);
  return OS.str();
}
