//===- fuzz/ParserFuzzer.cpp - Byte-level parser fuzz driver ----------------===//

#include "fuzz/ParserFuzzer.h"

#include "fuzz/RandomModuleGenerator.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"

#include <algorithm>
#include <vector>

using namespace sxe;

namespace {

/// The format's surface vocabulary, for token-soup inputs that get past
/// the lexer and exercise the parser's grammar errors.
const char *const Vocabulary[] = {
    "func",  "reg",   "@main", "@f",    "%r0",   "%r1",  "%acc",  "i8",
    "i16",   "i32",   "i64",   "f64",   "->",    "(",    ")",     "{",
    "}",     ":",     ",",     "=",     ".w32",  ".w64", ".i32",  ".i64",
    "const", "add",   "sub",   "mul",   "div",   "and",  "or",    "xor",
    "shl",   "shr",   "sar",   "sext",  "zext",  "copy", "jmp",   "br",
    "ret",   "call",  "entry", "loop",  "exit",  "body", "arr.load",
    "arr.store", "arr.new", "arr.len", "cmp",   "eq",   "ne",    "lt",
    "0",     "1",     "-1",    "42",    "0x7fffffff", "2147483648",
    "99999999999999999999", "-99999999999999999999", "3.5", "1e999",
};

std::string randomBytes(RNG &R, size_t Len) {
  std::string Text(Len, '\0');
  for (size_t Index = 0; Index < Len; ++Index)
    Text[Index] = static_cast<char>(R.next() & 0xFF);
  return Text;
}

std::string printableNoise(RNG &R, size_t Len) {
  std::string Text(Len, ' ');
  for (size_t Index = 0; Index < Len; ++Index)
    Text[Index] = static_cast<char>(0x20 + R.nextBelow(0x5F));
  return Text;
}

std::string tokenSoup(RNG &R, size_t Budget) {
  constexpr size_t NumWords = sizeof(Vocabulary) / sizeof(Vocabulary[0]);
  std::string Text;
  while (Text.size() < Budget) {
    Text += Vocabulary[R.nextBelow(NumWords)];
    switch (R.nextBelow(8)) {
    case 0:
      Text += '\n';
      break;
    case 1:
      break; // Glue tokens together.
    default:
      Text += ' ';
      break;
    }
  }
  return Text;
}

/// Corrupts a valid module text: byte flips, truncation, chunk
/// duplication, random insertion, or a splice of two texts.
std::string mutateText(RNG &R, const std::vector<std::string> &Pool,
                       size_t MaxBytes) {
  std::string Text = Pool[R.nextBelow(Pool.size())];
  unsigned Edits = 1 + static_cast<unsigned>(R.nextBelow(4));
  for (unsigned Edit = 0; Edit < Edits && !Text.empty(); ++Edit) {
    switch (R.nextBelow(5)) {
    case 0: { // Flip a byte.
      Text[R.nextBelow(Text.size())] = static_cast<char>(R.next() & 0xFF);
      break;
    }
    case 1: { // Truncate.
      Text.resize(R.nextBelow(Text.size() + 1));
      break;
    }
    case 2: { // Duplicate a chunk in place.
      size_t From = R.nextBelow(Text.size());
      size_t Len = std::min<size_t>(1 + R.nextBelow(64), Text.size() - From);
      Text.insert(R.nextBelow(Text.size() + 1), Text.substr(From, Len));
      break;
    }
    case 3: { // Insert random bytes.
      Text.insert(R.nextBelow(Text.size() + 1),
                  randomBytes(R, 1 + R.nextBelow(8)));
      break;
    }
    case 4: { // Splice with another pool entry.
      const std::string &Other = Pool[R.nextBelow(Pool.size())];
      size_t Cut = R.nextBelow(Text.size() + 1);
      size_t OtherCut = R.nextBelow(Other.size() + 1);
      Text = Text.substr(0, Cut) + Other.substr(OtherCut);
      break;
    }
    }
  }
  if (Text.size() > MaxBytes)
    Text.resize(MaxBytes);
  return Text;
}

/// Generator seeds 1-4 of the small preset.
std::vector<std::string> buildValidPool() {
  std::vector<std::string> Pool;
  GeneratorOptions Options = GeneratorOptions::small();
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    RandomModuleGenerator Gen(Seed, Options);
    Pool.push_back(printModule(*Gen.generate()));
  }
  return Pool;
}

} // namespace

std::string sxe::makeParserFuzzInput(RNG &R,
                                     const ParserFuzzOptions &Options) {
  // The valid pool is rebuilt per call here; runParserFuzz caches it.
  size_t Len = 1 + R.nextBelow(Options.MaxBytes);
  switch (R.nextBelow(Options.MutateValid ? 4 : 3)) {
  case 0:
    return randomBytes(R, Len);
  case 1:
    return printableNoise(R, Len);
  case 2:
    return tokenSoup(R, Len);
  default:
    return mutateText(R, buildValidPool(), Options.MaxBytes);
  }
}

bool sxe::runParserFuzz(uint64_t Seed, uint64_t Inputs,
                        const ParserFuzzOptions &Options,
                        ParserFuzzStats *Stats) {
  RNG R(Seed);
  std::vector<std::string> Pool;
  if (Options.MutateValid)
    Pool = buildValidPool();
  ParserFuzzStats Local;

  for (uint64_t Input = 0; Input < Inputs; ++Input) {
    size_t Len = 1 + R.nextBelow(Options.MaxBytes);
    std::string Text;
    switch (R.nextBelow(Options.MutateValid ? 4 : 3)) {
    case 0:
      Text = randomBytes(R, Len);
      break;
    case 1:
      Text = printableNoise(R, Len);
      break;
    case 2:
      Text = tokenSoup(R, Len);
      break;
    default:
      Text = mutateText(R, Pool, Options.MaxBytes);
      break;
    }

    ++Local.Inputs;
    ParseResult Parsed = parseModule(Text);
    if (!Parsed.ok()) {
      ++Local.Rejected;
      continue;
    }
    ++Local.Accepted;
    // An accepted module must be consumable: verification and printing
    // may reject it, but neither may crash.
    std::vector<std::string> Problems;
    if (verifyModule(*Parsed.M, Problems))
      ++Local.Verified;
    (void)printModule(*Parsed.M);
  }

  if (Stats)
    *Stats = Local;
  return true;
}
