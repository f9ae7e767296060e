//===- parser/Parser.cpp - Parser for textual IR ------------------------------===//

#include "parser/Parser.h"

#include "parser/Lexer.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <unordered_map>

using namespace sxe;

namespace {

/// Renders token text for a diagnostic: escapes non-printable bytes and
/// truncates pathologically long tokens. Fuzz input routinely lands
/// control bytes inside string tokens; echoing them raw corrupts the
/// error message.
std::string quoted(const std::string &Text) {
  const size_t MaxShown = 32;
  std::string Out;
  for (size_t Index = 0; Index < Text.size() && Index < MaxShown; ++Index) {
    unsigned char U = static_cast<unsigned char>(Text[Index]);
    if (std::isprint(U)) {
      Out += Text[Index];
    } else {
      char Buffer[8];
      std::snprintf(Buffer, sizeof(Buffer), "\\x%02X", U);
      Out += Buffer;
    }
  }
  if (Text.size() > MaxShown)
    Out += "...";
  return Out;
}

std::optional<Type> typeByName(const std::string &Name) {
  if (Name == "void")
    return Type::Void;
  if (Name == "i8")
    return Type::I8;
  if (Name == "i16")
    return Type::I16;
  if (Name == "u16")
    return Type::U16;
  if (Name == "i32")
    return Type::I32;
  if (Name == "i64")
    return Type::I64;
  if (Name == "f64")
    return Type::F64;
  if (Name == "arrayref")
    return Type::ArrayRef;
  return std::nullopt;
}

std::optional<CmpPred> predByName(const std::string &Name) {
  static const std::pair<const char *, CmpPred> Table[] = {
      {"eq", CmpPred::EQ},   {"ne", CmpPred::NE},   {"slt", CmpPred::SLT},
      {"sle", CmpPred::SLE}, {"sgt", CmpPred::SGT}, {"sge", CmpPred::SGE},
      {"ult", CmpPred::ULT}, {"ule", CmpPred::ULE}, {"ugt", CmpPred::UGT},
      {"uge", CmpPred::UGE},
  };
  for (const auto &[Text, Pred] : Table)
    if (Name == Text)
      return Pred;
  return std::nullopt;
}

/// Splits "add.w32" into ("add", "w32"); no dot yields ("add", "").
std::pair<std::string, std::string> splitMnemonic(const std::string &Text) {
  size_t Dot = Text.find('.');
  if (Dot == std::string::npos)
    return {Text, ""};
  return {Text.substr(0, Dot), Text.substr(Dot + 1)};
}

std::optional<Opcode> opcodeByMnemonic(const std::string &Name) {
  for (unsigned Index = 0; Index < NumOpcodes; ++Index) {
    Opcode Op = static_cast<Opcode>(Index);
    if (Name == opcodeMnemonic(Op))
      return Op;
  }
  // Printer prints ConstInt as "const" and ConstF64 as "fconst"; those are
  // the stored mnemonics already. Nothing special to do.
  return std::nullopt;
}

class Parser {
public:
  explicit Parser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {}

  ParseResult run();

private:
  const Token &peek() const { return Tokens[Pos]; }
  Token next() {
    // Never advance past the End sentinel: truncated input leaves callers
    // peeking End forever and failing with a diagnostic, not reading past
    // the token array.
    Token T = Tokens[Pos];
    if (T.Kind != TokenKind::End)
      ++Pos;
    return T;
  }
  bool atEnd() const { return peek().Kind == TokenKind::End; }

  [[nodiscard]] bool fail(const std::string &Message) {
    if (Error.empty())
      Error = "line " + std::to_string(peek().Line) + ": " + Message;
    return false;
  }

  bool expect(TokenKind Kind, const char *What) {
    if (peek().Kind != Kind)
      return fail(std::string("expected ") + What + ", found '" +
                  quoted(peek().Text) + "'");
    next();
    return true;
  }

  bool expectIdent(const std::string &Word) {
    if (peek().Kind != TokenKind::Identifier || peek().Text != Word)
      return fail("expected '" + Word + "', found '" + quoted(peek().Text) +
                  "'");
    next();
    return true;
  }

  bool parseType(Type &Ty) {
    if (peek().Kind != TokenKind::Identifier)
      return fail("expected a type name");
    auto Parsed = typeByName(peek().Text);
    if (!Parsed)
      return fail("unknown type '" + quoted(peek().Text) + "'");
    Ty = *Parsed;
    next();
    return true;
  }

  bool parseFunction(Module &M);
  bool parseInstruction(Function &F);

  Reg lookupReg(const std::string &Name, bool &Ok) {
    auto It = RegByName.find(Name);
    if (It == RegByName.end()) {
      Ok = fail("unknown register '%" + Name + "'");
      return NoReg;
    }
    Ok = true;
    return It->second;
  }

  bool parseRegOperand(Reg &R) {
    if (peek().Kind != TokenKind::RegName)
      return fail("expected a register operand");
    bool Ok = false;
    R = lookupReg(peek().Text, Ok);
    if (!Ok)
      return false;
    next();
    return true;
  }

  BasicBlock *blockByName(Function &F, const std::string &Name) {
    auto It = BlockByName.find(Name);
    if (It != BlockByName.end())
      return It->second;
    BasicBlock *BB = F.createBlock(Name);
    BlockByName[Name] = BB;
    return BB;
  }

  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::string Error;

  std::unordered_map<std::string, Reg> RegByName;
  std::unordered_map<std::string, BasicBlock *> BlockByName;
  BasicBlock *CurrentBlock = nullptr;
  /// Call sites to resolve once all functions exist.
  std::vector<std::pair<Instruction *, std::string>> CallFixups;
  /// Callee name of the call currently being parsed; the fixup records
  /// the instruction pointer the block admission returns.
  std::string PendingCallee;
};

bool Parser::parseFunction(Module &M) {
  if (!expectIdent("func"))
    return false;
  if (peek().Kind != TokenKind::GlobalName)
    return fail("expected '@name' after 'func'");
  std::string Name = next().Text;
  if (M.findFunction(Name))
    return fail("duplicate function '@" + Name + "'");

  if (!expect(TokenKind::LParen, "'('"))
    return false;

  struct Param {
    std::string Name;
    Type Ty;
  };
  std::vector<Param> Params;
  if (peek().Kind != TokenKind::RParen) {
    while (true) {
      if (peek().Kind != TokenKind::RegName)
        return fail("expected a parameter name");
      std::string PName = next().Text;
      if (!expect(TokenKind::Colon, "':'"))
        return false;
      Type Ty;
      if (!parseType(Ty))
        return false;
      Params.push_back({PName, Ty});
      if (peek().Kind == TokenKind::Comma) {
        next();
        continue;
      }
      break;
    }
  }
  if (!expect(TokenKind::RParen, "')'"))
    return false;
  if (!expect(TokenKind::Arrow, "'->'"))
    return false;
  Type RetTy;
  if (!parseType(RetTy))
    return false;
  if (!expect(TokenKind::LBrace, "'{'"))
    return false;

  Function *F = M.createFunction(Name, RetTy);
  RegByName.clear();
  BlockByName.clear();
  for (const Param &P : Params) {
    if (RegByName.count(P.Name))
      return fail("duplicate register '%" + P.Name + "'");
    RegByName[P.Name] = F->addParam(P.Ty, P.Name);
  }

  // Register declarations.
  while (peek().Kind == TokenKind::Identifier && peek().Text == "reg") {
    next();
    if (peek().Kind != TokenKind::RegName)
      return fail("expected a register name after 'reg'");
    std::string RName = next().Text;
    if (!expect(TokenKind::Colon, "':'"))
      return false;
    Type Ty;
    if (!parseType(Ty))
      return false;
    if (RegByName.count(RName))
      return fail("duplicate register '%" + RName + "'");
    RegByName[RName] = F->newReg(Ty, RName);
  }

  // Pre-scan the body for labels so blocks are created in textual order
  // (a forward branch reference must not reorder the layout; the printer
  // emits layout order, and print -> parse -> print must be a fixpoint).
  // In the body grammar, "identifier ':'" occurs only as a label (reg and
  // parameter declarations put the colon after a %name).
  for (size_t Ahead = Pos; Ahead + 1 < Tokens.size() &&
                           Tokens[Ahead].Kind != TokenKind::RBrace;
       ++Ahead) {
    if (Tokens[Ahead].Kind == TokenKind::Identifier &&
        Tokens[Ahead + 1].Kind == TokenKind::Colon)
      blockByName(*F, Tokens[Ahead].Text);
  }

  // Blocks: label ':' then instructions until the next label or '}'.
  BasicBlock *Current = nullptr;
  while (peek().Kind != TokenKind::RBrace) {
    if (atEnd())
      return fail("unexpected end of input inside a function");
    if (peek().Kind == TokenKind::Identifier &&
        Pos + 1 < Tokens.size() &&
        Tokens[Pos + 1].Kind == TokenKind::Colon) {
      std::string Label = next().Text;
      next(); // ':'
      Current = blockByName(*F, Label);
      if (!Current->empty())
        return fail("block '" + Label + "' defined twice");
      CurrentBlock = Current;
      continue;
    }
    if (!Current)
      return fail("instruction before the first block label");
    CurrentBlock = Current;
    if (!parseInstruction(*F))
      return false;
  }
  next(); // '}'

  // Every referenced block must have been defined.
  for (const auto &[BName, BB] : BlockByName)
    if (BB->empty())
      return fail("block '" + BName + "' referenced but never defined");
  return true;
}

bool Parser::parseInstruction(Function &F) {
  // Optional "%dest =".
  Reg Dest = NoReg;
  if (peek().Kind == TokenKind::RegName &&
      Pos + 1 < Tokens.size() &&
      Tokens[Pos + 1].Kind == TokenKind::Equals) {
    bool Ok = false;
    Dest = lookupReg(next().Text, Ok);
    if (!Ok)
      return false;
    next(); // '='
  }

  if (peek().Kind != TokenKind::Identifier)
    return fail("expected an instruction mnemonic");
  auto [Base, Suffix] = splitMnemonic(next().Text);

  auto Op = opcodeByMnemonic(Base);
  if (!Op)
    return fail("unknown mnemonic '" + quoted(Base) + "'");

  Instruction *Inst = F.newInstruction(*Op);
  // The arena never runs ~Instruction; the block Inst joins does. Until
  // then a failed parse must destroy it here, or its operands leak.
  auto Destroy = [](Instruction *I) { I->~Instruction(); };
  std::unique_ptr<Instruction, decltype(Destroy)> Unlinked(Inst, Destroy);
  Inst->setDest(Dest);
  const OpcodeInfo &Info = opcodeInfo(*Op);

  if (Info.HasWidth) {
    if (Suffix == "w32")
      Inst->setWidth(Width::W32);
    else if (Suffix == "w64")
      Inst->setWidth(Width::W64);
    else
      return fail("expected .w32/.w64 width suffix on '" + Base + "'");
  } else if (Info.HasElemType || *Op == Opcode::ConstInt) {
    auto Ty = typeByName(Suffix);
    if (!Ty)
      return fail("expected a type suffix on '" + Base + "'");
    Inst->setType(*Ty);
  } else if (!Suffix.empty()) {
    return fail("unexpected suffix on '" + Base + "'");
  }

  auto parseOperandList = [&](unsigned Count) {
    for (unsigned Index = 0; Index < Count; ++Index) {
      if (Index != 0 && !expect(TokenKind::Comma, "','"))
        return false;
      Reg R = NoReg;
      if (!parseRegOperand(R))
        return false;
      Inst->addOperand(R);
    }
    return true;
  };

  switch (*Op) {
  case Opcode::ConstInt: {
    if (peek().Kind != TokenKind::Number)
      return fail("expected an integer literal");
    const std::string &Text = peek().Text;
    errno = 0;
    char *End = nullptr;
    long long Value = std::strtoll(Text.c_str(), &End, 0);
    if (End != Text.c_str() + Text.size() || End == Text.c_str())
      return fail("malformed integer literal '" + quoted(Text) + "'");
    if (errno == ERANGE)
      return fail("integer literal out of range '" + quoted(Text) + "'");
    Inst->setIntValue(Value);
    next();
    break;
  }
  case Opcode::ConstF64: {
    if (peek().Kind != TokenKind::Number)
      return fail("expected a float literal");
    const std::string &Text = peek().Text;
    errno = 0;
    char *End = nullptr;
    double Value = std::strtod(Text.c_str(), &End);
    if (End != Text.c_str() + Text.size() || End == Text.c_str())
      return fail("malformed float literal '" + quoted(Text) + "'");
    // ERANGE overflow saturates to +-HUGE_VAL; reject it. ERANGE underflow
    // (subnormals rounding toward zero) keeps the nearest representable
    // value and is accepted.
    if (errno == ERANGE && (Value == HUGE_VAL || Value == -HUGE_VAL))
      return fail("float literal out of range '" + quoted(Text) + "'");
    Inst->setFloatValue(Value);
    next();
    break;
  }
  case Opcode::Cmp:
  case Opcode::FCmp: {
    if (peek().Kind != TokenKind::Identifier)
      return fail("expected a comparison predicate");
    auto Pred = predByName(next().Text);
    if (!Pred)
      return fail("unknown comparison predicate");
    Inst->setPred(*Pred);
    if (!parseOperandList(2))
      return false;
    break;
  }
  case Opcode::Br: {
    Reg Cond;
    if (!parseRegOperand(Cond))
      return false;
    Inst->addOperand(Cond);
    for (unsigned Index = 0; Index < 2; ++Index) {
      if (!expect(TokenKind::Comma, "','"))
        return false;
      if (peek().Kind != TokenKind::Identifier)
        return fail("expected a block label");
      Inst->setSuccessor(Index, blockByName(F, next().Text));
    }
    break;
  }
  case Opcode::Jmp: {
    if (peek().Kind != TokenKind::Identifier)
      return fail("expected a block label");
    Inst->setSuccessor(0, blockByName(F, next().Text));
    break;
  }
  case Opcode::Ret: {
    if (peek().Kind == TokenKind::RegName) {
      Reg R = NoReg;
      if (!parseRegOperand(R))
        return false;
      Inst->addOperand(R);
    }
    break;
  }
  case Opcode::Call: {
    if (peek().Kind != TokenKind::GlobalName)
      return fail("expected '@callee'");
    std::string Callee = next().Text;
    if (!expect(TokenKind::LParen, "'('"))
      return false;
    if (peek().Kind != TokenKind::RParen) {
      while (true) {
        Reg R;
        if (!parseRegOperand(R))
          return false;
        Inst->addOperand(R);
        if (peek().Kind == TokenKind::Comma) {
          next();
          continue;
        }
        break;
      }
    }
    if (!expect(TokenKind::RParen, "')'"))
      return false;
    PendingCallee = Callee;
    break;
  }
  default: {
    unsigned Count = Info.NumOperands >= 0
                         ? static_cast<unsigned>(Info.NumOperands)
                         : 0;
    if (!parseOperandList(Count))
      return false;
    break;
  }
  }

  CurrentBlock->append(Unlinked.release());
  if (*Op == Opcode::Call) {
    CallFixups.push_back({Inst, PendingCallee});
    PendingCallee.clear();
  }
  return true;
}

ParseResult Parser::run() {
  ParseResult Result;
  auto M = std::make_unique<Module>("module");

  if (peek().Kind == TokenKind::Identifier && peek().Text == "module") {
    next();
    if (peek().Kind != TokenKind::String) {
      (void)fail("expected a string after 'module'");
      Result.Error = Error;
      return Result;
    }
    M = std::make_unique<Module>(next().Text);
  }

  while (!atEnd()) {
    if (!parseFunction(*M)) {
      Result.Error = Error;
      return Result;
    }
  }

  for (const auto &[Call, Callee] : CallFixups) {
    Function *Target = M->findFunction(Callee);
    if (!Target) {
      Result.Error = "call to undefined function '@" + Callee + "'";
      return Result;
    }
    Call->setCallee(Target);
  }

  Result.M = std::move(M);
  return Result;
}

} // namespace

ParseResult sxe::parseModule(const std::string &Source) {
  ParseResult Result;
  std::vector<Token> Tokens;
  if (!tokenize(Source, Tokens, Result.Error))
    return Result;
  Parser P(std::move(Tokens));
  return P.run();
}
