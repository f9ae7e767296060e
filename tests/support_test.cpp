//===- tests/support_test.cpp - Support library tests -------------------------------===//

#include "support/Arena.h"
#include "support/DenseBitset.h"
#include "support/EpochIndexSet.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/RNG.h"
#include "support/Timer.h"
#include "target/CostModel.h"
#include "ir/IRBuilder.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>
#include <gtest/gtest.h>

using namespace sxe;

namespace {

TEST(FormatTest, Commas) {
  EXPECT_EQ(formatWithCommas(0), "0");
  EXPECT_EQ(formatWithCommas(7), "7");
  EXPECT_EQ(formatWithCommas(999), "999");
  EXPECT_EQ(formatWithCommas(1000), "1,000");
  EXPECT_EQ(formatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(formatWithCommas(1000000000ull), "1,000,000,000");
}

TEST(FormatTest, PercentAndFixed) {
  EXPECT_EQ(formatPercent(0.4099), "40.99%");
  EXPECT_EQ(formatPercent(1.0, 0), "100%");
  EXPECT_EQ(formatFixed(3.14159, 3), "3.142");
}

TEST(FormatTest, Padding) {
  EXPECT_EQ(padLeft("ab", 5), "   ab");
  EXPECT_EQ(padRight("ab", 5), "ab   ");
  EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
}

TEST(RNGTest, DeterministicAndBounded) {
  RNG A(42), B(42);
  for (int Trial = 0; Trial < 100; ++Trial)
    EXPECT_EQ(A.next(), B.next());

  RNG R(7);
  for (int Trial = 0; Trial < 1000; ++Trial) {
    EXPECT_LT(R.nextBelow(17), 17u);
    int64_t V = R.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RNGTest, RoughlyUniform) {
  RNG R(1234);
  int Buckets[8] = {0};
  for (int Trial = 0; Trial < 8000; ++Trial)
    ++Buckets[R.nextBelow(8)];
  for (int Count : Buckets) {
    EXPECT_GT(Count, 700);
    EXPECT_LT(Count, 1300);
  }
}

TEST(TimerTest, Accumulates) {
  Timer T;
  T.start();
  volatile unsigned Sink = 0;
  for (unsigned K = 0; K < 100000; ++K)
    Sink = Sink + K;
  T.stop();
  uint64_t First = T.elapsedNanos();
  EXPECT_GT(First, 0u);
  {
    TimerScope Scope(T);
    for (unsigned K = 0; K < 100000; ++K)
      Sink = Sink + K;
  }
  EXPECT_GT(T.elapsedNanos(), First);
  T.reset();
  EXPECT_EQ(T.elapsedNanos(), 0u);
}

TEST(CostModelTest, RelativeCosts) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", Type::I32);
  Reg P = F->addParam(Type::I32, "p");
  Reg A = F->addParam(Type::ArrayRef, "a");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Add = B.add32(P, P);
  Reg Div = B.div32(P, P);
  Reg Load = B.arrayLoad(Type::I32, A, P);
  Reg Ext = F->newReg(Type::I32, "e");
  Instruction *SextI = B.sextTo(Ext, 32, P);
  B.ret(Add);
  (void)Div;
  (void)Load;

  const TargetInfo &T = TargetInfo::ia64();
  const Instruction *AddI = nullptr, *DivI = nullptr, *LoadI = nullptr;
  for (const Instruction &I : *F->entryBlock()) {
    if (I.opcode() == Opcode::Add)
      AddI = &I;
    if (I.opcode() == Opcode::Div)
      DivI = &I;
    if (I.opcode() == Opcode::ArrayLoad)
      LoadI = &I;
  }
  // A sign extension costs exactly one ALU cycle.
  EXPECT_EQ(instructionCycleCost(*SextI, T), 1u);
  EXPECT_EQ(instructionCycleCost(*AddI, T), 1u);
  EXPECT_GT(instructionCycleCost(*DivI, T),
            instructionCycleCost(*LoadI, T));
  // IA64's shladd makes the access one cycle cheaper than PPC64's
  // separate shift+add.
  EXPECT_LT(instructionCycleCost(*LoadI, TargetInfo::ia64()),
            instructionCycleCost(*LoadI, TargetInfo::ppc64()));

  // Dummies never reach code.
  Instruction Dummy(Opcode::JustExtended);
  Dummy.setDest(P);
  Dummy.addOperand(P);
  EXPECT_EQ(instructionCycleCost(Dummy, T), 0u);
}

// --- JSON string escaping (RFC 8259) and the parser ---------------------------

/// Parses the single JSON string produced by JsonWriter::quote back into
/// its decoded value.
std::string quoteRoundTrip(const std::string &Raw) {
  JsonValue V;
  std::string Error;
  EXPECT_TRUE(parseJson(JsonWriter::quote(Raw), V, Error))
      << Error << " for " << JsonWriter::quote(Raw);
  EXPECT_TRUE(V.isString());
  return V.stringValue();
}

TEST(JsonTest, QuoteEscapesControlCharacters) {
  EXPECT_EQ(JsonWriter::quote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(JsonWriter::quote("a\tb"), "\"a\\tb\"");
  EXPECT_EQ(JsonWriter::quote("a\rb"), "\"a\\rb\"");
  EXPECT_EQ(JsonWriter::quote("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(JsonWriter::quote("back\\slash"), "\"back\\\\slash\"");
  // Bare control bytes become \u escapes, not raw bytes.
  EXPECT_EQ(JsonWriter::quote(std::string("a\001b", 3)), "\"a\\u0001b\"");
  EXPECT_EQ(JsonWriter::quote(std::string("a\x1f", 2)), "\"a\\u001f\"");
  EXPECT_EQ(JsonWriter::quote(std::string("nul\0!", 5)), "\"nul\\u0000!\"");
}

TEST(JsonTest, QuotePassesValidUtf8Through) {
  // 2-, 3-, and 4-byte sequences survive unescaped.
  EXPECT_EQ(JsonWriter::quote("caf\xC3\xA9"), "\"caf\xC3\xA9\"");
  EXPECT_EQ(JsonWriter::quote("\xE2\x82\xAC"), "\"\xE2\x82\xAC\"");
  EXPECT_EQ(JsonWriter::quote("\xF0\x9F\x98\x80"), "\"\xF0\x9F\x98\x80\"");
}

TEST(JsonTest, QuoteMapsInvalidBytesToLatin1Escapes) {
  // A lone continuation byte, a truncated lead, an overlong encoding, and
  // a CESU-8 surrogate must not produce invalid JSON output.
  EXPECT_EQ(JsonWriter::quote(std::string("\x80", 1)), "\"\\u0080\"");
  EXPECT_EQ(JsonWriter::quote(std::string("\xC3", 1)), "\"\\u00c3\"");
  EXPECT_EQ(JsonWriter::quote(std::string("\xC0\xAF", 2)),
            "\"\\u00c0\\u00af\"");
  EXPECT_EQ(JsonWriter::quote(std::string("\xED\xA0\x80", 3)),
            "\"\\u00ed\\u00a0\\u0080\"");
}

TEST(JsonTest, QuoteFuzzEveryByteValueParsesBack) {
  // Fuzz-ish: random byte strings — including every byte value — must
  // always produce output the strict parser accepts.
  RNG Rng(0x5eed);
  for (unsigned Round = 0; Round < 200; ++Round) {
    std::string Raw;
    unsigned Len = static_cast<unsigned>(Rng.nextBelow(32));
    for (unsigned I = 0; I < Len; ++I)
      Raw.push_back(static_cast<char>(Rng.nextBelow(256)));
    JsonValue V;
    std::string Error;
    ASSERT_TRUE(parseJson(JsonWriter::quote(Raw), V, Error))
        << Error << " for round " << Round;
    ASSERT_TRUE(V.isString());
  }
  // ASCII and valid UTF-8 round-trip exactly.
  EXPECT_EQ(quoteRoundTrip("plain ascii 123"), "plain ascii 123");
  EXPECT_EQ(quoteRoundTrip("tab\there\nline"), "tab\there\nline");
  EXPECT_EQ(quoteRoundTrip("caf\xC3\xA9"), "caf\xC3\xA9");
}

/// The per-byte escaper JsonWriter::quote replaced, kept as the reference
/// the run-based writer must match byte for byte.
size_t referenceUtf8Length(const std::string &Text, size_t Index) {
  auto Byte = [&](size_t Offset) -> unsigned {
    return static_cast<unsigned char>(Text[Index + Offset]);
  };
  auto IsCont = [&](size_t Offset) {
    return Index + Offset < Text.size() && (Byte(Offset) & 0xC0) == 0x80;
  };
  unsigned Lead = Byte(0);
  if (Lead < 0x80)
    return 1;
  if (Lead < 0xC2)
    return 0;
  if (Lead < 0xE0)
    return IsCont(1) ? 2 : 0;
  if (Lead < 0xF0) {
    if (!IsCont(1) || !IsCont(2))
      return 0;
    unsigned Code = ((Lead & 0x0F) << 12) | ((Byte(1) & 0x3F) << 6);
    return Code < 0x800 || (Code >= 0xD800 && Code <= 0xDFFF) ? 0 : 3;
  }
  if (Lead < 0xF5) {
    if (!IsCont(1) || !IsCont(2) || !IsCont(3))
      return 0;
    unsigned Code = ((Lead & 0x07) << 18) | ((Byte(1) & 0x3F) << 12);
    return Code < 0x10000 || Code > 0x10FFFF ? 0 : 4;
  }
  return 0;
}

std::string referenceQuote(const std::string &Raw) {
  std::string Quoted = "\"";
  for (size_t Index = 0; Index < Raw.size();) {
    char C = Raw[Index];
    unsigned char Byte = static_cast<unsigned char>(C);
    const char *Short = C == '"'    ? "\\\""
                        : C == '\\' ? "\\\\"
                        : C == '\n' ? "\\n"
                        : C == '\r' ? "\\r"
                        : C == '\t' ? "\\t"
                                    : nullptr;
    if (Short) {
      Quoted += Short;
      ++Index;
      continue;
    }
    size_t Length = Byte < 0x20 ? 0 : referenceUtf8Length(Raw, Index);
    if (Length > 0) {
      Quoted.append(Raw, Index, Length);
      Index += Length;
      continue;
    }
    char Buffer[8];
    std::snprintf(Buffer, sizeof(Buffer), "\\u%04x",
                  static_cast<unsigned>(Byte));
    Quoted += Buffer;
    ++Index;
  }
  Quoted += '"';
  return Quoted;
}

TEST(JsonTest, QuoteMatchesPerByteReference) {
  // Run boundaries: escapes at the first and last byte, adjacent escapes,
  // UTF-8 right after a run, an invalid lead byte at the end, and specials
  // on either side of an 8-byte word edge.
  std::vector<std::string> Cases = {
      "",
      "\"abc",
      "abc\"",
      "\n\n\\\"\t\r",
      "abcdefgh\xC3\xA9",
      "abcdefg\xE2\x82\xAC tail",
      "abcdefghij\xC3",
      "0123456789abcde\xF0",
      std::string("1234567\0" "89abcdef", 16),
      "12345678\"9abcdef\\",
      "1234567\x7f\x80" "9abcdefgh",
      "\xF0\x9F\x98\x80\xF0\x9F\x98\x80\xF0\x9F\x98\x80",
  };
  RNG Rng(0xb17e);
  for (unsigned Round = 0; Round < 2000; ++Round) {
    std::string Raw;
    unsigned Len = static_cast<unsigned>(Rng.nextBelow(48));
    // Half the rounds are mostly plain ASCII, so long runs cross word
    // edges; the rest draw every byte value uniformly.
    bool Sparse = Round % 2 == 0;
    for (unsigned I = 0; I < Len; ++I)
      Raw.push_back(static_cast<char>(
          Sparse && Rng.nextBelow(8) != 0 ? 'a' + Rng.nextBelow(26)
                                          : Rng.nextBelow(256)));
    Cases.push_back(Raw);
  }
  for (const std::string &Raw : Cases) {
    ASSERT_EQ(referenceQuote(Raw), JsonWriter::quote(Raw))
        << "for " << referenceQuote(Raw);
    // appendQuoted extends an existing buffer with the same bytes.
    std::string Buffer = "prefix:";
    JsonWriter::appendQuoted(Buffer, Raw);
    ASSERT_EQ("prefix:" + referenceQuote(Raw), Buffer);
  }
}

/// Appends code point \p Code to \p Out as UTF-8.
void appendCodePoint(std::string &Out, unsigned Code) {
  if (Code < 0x80) {
    Out += static_cast<char>(Code);
  } else if (Code < 0x800) {
    Out += static_cast<char>(0xC0 | (Code >> 6));
    Out += static_cast<char>(0x80 | (Code & 0x3F));
  } else if (Code < 0x10000) {
    Out += static_cast<char>(0xE0 | (Code >> 12));
    Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
    Out += static_cast<char>(0x80 | (Code & 0x3F));
  } else {
    Out += static_cast<char>(0xF0 | (Code >> 18));
    Out += static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
    Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
    Out += static_cast<char>(0x80 | (Code & 0x3F));
  }
}

TEST(JsonTest, QuoteThenParseRoundTripsValidUtf8) {
  RNG Rng(0x0cf8);
  for (unsigned Round = 0; Round < 1000; ++Round) {
    std::string Raw;
    unsigned Len = static_cast<unsigned>(Rng.nextBelow(40));
    for (unsigned I = 0; I < Len; ++I) {
      unsigned Pick = static_cast<unsigned>(Rng.nextBelow(4));
      unsigned Code = Pick == 0   ? Rng.nextBelow(0x80)
                      : Pick == 1 ? 0x80 + Rng.nextBelow(0x780)
                      : Pick == 2 ? 0x800 + Rng.nextBelow(0xF800)
                                  : 0x10000 + Rng.nextBelow(0x100000);
      if (Code >= 0xD800 && Code <= 0xDFFF)
        Code = '"'; // Surrogates are not scalar values.
      appendCodePoint(Raw, Code);
    }
    JsonValue V;
    std::string Error;
    ASSERT_TRUE(parseJson(JsonWriter::quote(Raw), V, Error)) << Error;
    ASSERT_EQ(Raw, V.stringValue()) << "round " << Round;
  }
}

TEST(JsonTest, OutOfRangeNumbersNeverThrow) {
  // Overflow is a parse error, wherever the number sits.
  for (const char *Text : {"1e999", "-1e999", "[1, 1e400]",
                           "{\"hotness\": 1e999}", "123456789e305"}) {
    JsonValue V;
    std::string Error;
    EXPECT_FALSE(parseJson(Text, V, Error)) << "accepted: " << Text;
    EXPECT_NE(std::string::npos, Error.find("number out of range")) << Error;
  }
  // Underflow reads as the nearest double: a subnormal, or a signed zero.
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson("[1e-320, 1e-400, -1e-400, 0.5e-323]", V, Error))
      << Error;
  EXPECT_EQ(std::strtod("1e-320", nullptr), V.array()[0].numberValue());
  EXPECT_GT(V.array()[0].numberValue(), 0.0);
  EXPECT_EQ(0.0, V.array()[1].numberValue());
  EXPECT_TRUE(std::signbit(V.array()[2].numberValue()));
  EXPECT_EQ(std::strtod("0.5e-323", nullptr), V.array()[3].numberValue());
}

TEST(JsonTest, Uint64FieldReadsOnlyRepresentableCounts) {
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(
      "{\"neg\": -1, \"tiny_neg\": -0.5, \"big\": 1e300, "
      "\"two64\": 18446744073709551616, \"top\": 18446744073709549568, "
      "\"frac\": 7.9, \"zero\": -0, \"str\": \"5\", \"ok\": 42}",
      V, Error))
      << Error;
  EXPECT_EQ(9u, V.uint64Field("neg", 9));
  EXPECT_EQ(9u, V.uint64Field("tiny_neg", 9));
  EXPECT_EQ(9u, V.uint64Field("big", 9));
  EXPECT_EQ(9u, V.uint64Field("two64", 9));
  EXPECT_EQ(18446744073709549568ull, V.uint64Field("top", 9));
  EXPECT_EQ(7u, V.uint64Field("frac", 9));
  EXPECT_EQ(0u, V.uint64Field("zero", 9));
  EXPECT_EQ(9u, V.uint64Field("str", 9));
  EXPECT_EQ(9u, V.uint64Field("absent", 9));
  EXPECT_EQ(42u, V.uint64Field("ok"));
  EXPECT_EQ(0u, V.uint64Field("neg"));
}

TEST(JsonTest, TakeMovesStringsAndBuffersOut) {
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson("{\"s\": \"payload\", \"n\": 1}", V, Error)) << Error;
  EXPECT_EQ("payload", V.takeStringField("s"));
  EXPECT_EQ("", V.stringField("s"));
  EXPECT_EQ("", V.takeStringField("n")); // Not a string: left alone.
  EXPECT_EQ(1.0, V.find("n")->numberValue());

  JsonWriter J;
  J.beginObject();
  J.keyValue("k", "v");
  J.endObject();
  std::string Expected = J.str();
  EXPECT_EQ(Expected, J.take());
  EXPECT_TRUE(J.str().empty());
}

TEST(JsonTest, SplicedMembersEqualMembersWrittenInPlace) {
  auto WriteMembers = [](JsonWriter &J) {
    J.keyValue("hash", "00ff");
    J.key("list");
    J.beginArray();
    J.beginObject();
    J.keyValue("n", uint64_t{1});
    J.endObject();
    J.endArray();
  };
  JsonWriter Direct;
  Direct.beginObject();
  Direct.keyValue("head", true);
  WriteMembers(Direct);
  Direct.keyValue("tail", uint64_t{2});
  Direct.endObject();

  JsonWriter Part;
  Part.beginObject();
  WriteMembers(Part);
  Part.endObject();
  std::string Members = Part.take();
  JsonWriter Spliced;
  Spliced.beginObject();
  Spliced.keyValue("head", true);
  Spliced.rawMembers(JsonWriter::membersOf(Members));
  Spliced.keyValue("tail", uint64_t{2});
  Spliced.endObject();
  EXPECT_EQ(Direct.str(), Spliced.str());

  // Spliced first, or with nothing to splice.
  JsonWriter First;
  First.beginObject();
  First.rawMembers(JsonWriter::membersOf(Members));
  First.endObject();
  EXPECT_EQ(Members, First.str());
  EXPECT_TRUE(JsonWriter::membersOf("{}").empty());
  JsonWriter Empty;
  Empty.beginObject();
  Empty.rawMembers(JsonWriter::membersOf("{}"));
  Empty.endObject();
  EXPECT_EQ("{}", Empty.str());
}

TEST(JsonTest, ParserAcceptsDocuments) {
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"e\": \"\\u0041\\u00e9\\ud83d\\ude00\"}",
      V, Error))
      << Error;
  ASSERT_TRUE(V.isObject());
  const JsonValue *A = V.find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isArray());
  ASSERT_EQ(A->array().size(), 3u);
  EXPECT_EQ(A->array()[0].numberValue(), 1.0);
  EXPECT_EQ(A->array()[2].numberValue(), -300.0);
  const JsonValue *B = V.find("b");
  ASSERT_NE(B, nullptr);
  EXPECT_TRUE(B->find("c")->boolValue());
  EXPECT_TRUE(B->find("d")->isNull());
  // \u escapes decode to UTF-8, including a surrogate pair.
  EXPECT_EQ(V.stringField("e"), "A\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  const char *Bad[] = {
      "",           "{",           "[1, ]",     "{\"a\": }",
      "{\"a\" 1}",  "[1 2]",       "01",        "1.",
      "+1",         "\"unclosed",  "tru",       "nul",
      "{} garbage", "\"\\ud800\"", // Lone high surrogate.
      "\"\\x41\"",                 // Invalid escape.
      "\"0123456789\nabcdef\"",    // Raw control byte inside a run.
  };
  for (const char *Text : Bad) {
    JsonValue V;
    std::string Error;
    EXPECT_FALSE(parseJson(Text, V, Error)) << "accepted: " << Text;
  }
}

TEST(ArenaTest, AllocationsAreAlignedAndCounted) {
  Arena A;
  void *P8 = A.allocate(3, 8);
  void *P16 = A.allocate(24, 16);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P8) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P16) % 16, 0u);
  EXPECT_EQ(A.bytesAllocated(), 27u);
  EXPECT_GE(A.bytesReserved(), A.bytesAllocated());
}

TEST(ArenaTest, ResetReusesTheFirstSlab) {
  Arena A;
  void *First = A.allocate(64, 8);
  // Force slab growth so reset has something to rewind across.
  for (int I = 0; I < 1000; ++I)
    A.allocate(256, 8);
  size_t Slabs = A.numSlabs();
  EXPECT_GT(Slabs, 1u);

  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  EXPECT_EQ(A.numSlabs(), Slabs) << "reset must keep reserved memory";
  void *Again = A.allocate(64, 8);
  EXPECT_EQ(Again, First) << "reset must rewind to the first slab";
}

TEST(ArenaTest, CreatePlacesObjects) {
  struct Pair {
    int A;
    int B;
  };
  Arena A;
  Pair *P = A.create<Pair>(Pair{3, 4});
  EXPECT_EQ(P->A, 3);
  EXPECT_EQ(P->B, 4);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % alignof(Pair), 0u);
}

TEST(DenseBitsetTest, EveryBitOfEverySizeRoundTrips) {
  for (size_t Size : {0u, 1u, 63u, 64u, 65u, 130u}) {
    DenseBitset S(Size);
    EXPECT_EQ(S.size(), Size);
    for (size_t Bit = 0; Bit < Size; ++Bit) {
      EXPECT_FALSE(S.test(Bit));
      S.set(Bit);
      EXPECT_TRUE(S.test(Bit));
    }
    // The all-one constructor leaves no bit set past the size.
    DenseBitset Filled(Size, /*Filled=*/true);
    EXPECT_EQ(S, Filled) << Size;
    size_t Count = 0;
    Filled.forEach([&](size_t Bit) {
      EXPECT_LT(Bit, Size);
      ++Count;
    });
    EXPECT_EQ(Count, Size);

    for (size_t Bit = 0; Bit < Size; Bit += 2)
      S.reset(Bit);
    for (size_t Bit = 0; Bit < Size; ++Bit)
      EXPECT_EQ(S.test(Bit), Bit % 2 == 1) << Size << ":" << Bit;
  }
}

TEST(DenseBitsetTest, SetOperationsReportChange) {
  DenseBitset A(130), B(130);
  A.set(0);
  A.set(64);
  B.set(64);
  B.set(129);

  DenseBitset U = A;
  EXPECT_TRUE(U.unionWith(B));
  EXPECT_FALSE(U.unionWith(B));
  EXPECT_FALSE(U.unionWith(A));

  DenseBitset I = A;
  EXPECT_TRUE(I.intersectWith(B));
  EXPECT_FALSE(I.intersectWith(B));
  EXPECT_FALSE(I.intersectWith(U));

  DenseBitset D = U;
  EXPECT_TRUE(D.subtract(B));
  EXPECT_FALSE(D.subtract(B));
  EXPECT_FALSE(D.subtract(DenseBitset(130)));

  std::vector<size_t> Bits;
  U.forEach([&](size_t Bit) { Bits.push_back(Bit); });
  EXPECT_EQ(Bits, (std::vector<size_t>{0, 64, 129}));
  Bits.clear();
  I.forEach([&](size_t Bit) { Bits.push_back(Bit); });
  EXPECT_EQ(Bits, (std::vector<size_t>{64}));
  Bits.clear();
  D.forEach([&](size_t Bit) { Bits.push_back(Bit); });
  EXPECT_EQ(Bits, (std::vector<size_t>{0}));
}

TEST(DenseBitsetTest, ForEachVisitsAscending) {
  DenseBitset S(200);
  const std::vector<size_t> Expected = {0, 1, 62, 63, 64, 127, 128, 199};
  for (auto It = Expected.rbegin(); It != Expected.rend(); ++It)
    S.set(*It);
  std::vector<size_t> Seen;
  S.forEach([&](size_t Bit) { Seen.push_back(Bit); });
  EXPECT_EQ(Seen, Expected);
}

TEST(DenseBitsetTest, IndexAtSizeDiesInCheckedBuilds) {
  // Release builds run the statement unchecked: at size 65 the index
  // still lands inside the second word, so the read stays in bounds.
  DenseBitset S(65);
  EXPECT_DEBUG_DEATH((void)S.test(S.size()), "out of range");
}

TEST(EpochIndexSetTest, TestAndSetMatchesInsertIdiom) {
  EpochIndexSet S;
  S.reserve(16);
  EXPECT_FALSE(S.testAndSet(3));
  EXPECT_TRUE(S.testAndSet(3));
  EXPECT_TRUE(S.contains(3));
  EXPECT_FALSE(S.contains(4));
  EXPECT_EQ(S.size(), 1u);
}

TEST(EpochIndexSetTest, ClearEmptiesWithoutTouchingMarks) {
  EpochIndexSet S;
  S.reserve(8);
  S.testAndSet(1);
  S.testAndSet(7);
  S.clear();
  EXPECT_EQ(S.size(), 0u);
  EXPECT_FALSE(S.contains(1));
  EXPECT_FALSE(S.testAndSet(7)) << "cleared keys must insert fresh";
}

TEST(EpochIndexSetTest, AutoGrowsPastReserve) {
  EpochIndexSet S;
  S.reserve(4);
  EXPECT_FALSE(S.testAndSet(100));
  EXPECT_TRUE(S.contains(100));
}

TEST(EpochIndexSetTest, RollbackDiscardsSpeculativeInserts) {
  EpochIndexSet S;
  S.reserve(32);
  S.testAndSet(1);
  S.testAndSet(2);
  size_t W = S.watermark();
  S.testAndSet(10);
  S.testAndSet(11);
  EXPECT_EQ(S.size(), 4u);
  S.rollback(W);
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(1));
  EXPECT_TRUE(S.contains(2));
  EXPECT_FALSE(S.contains(10));
  EXPECT_FALSE(S.contains(11));
  // Rolled-back keys can be re-inserted and re-rolled-back repeatedly
  // (the And-node speculation pattern).
  EXPECT_FALSE(S.testAndSet(10));
  S.rollback(W);
  EXPECT_FALSE(S.contains(10));
}

} // namespace
