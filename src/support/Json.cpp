//===- support/Json.cpp - Minimal JSON emission -------------------------------===//

#include "support/Json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace sxe;

void JsonWriter::separate() {
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (!NeedComma.empty()) {
    if (NeedComma.back())
      Out += ',';
    NeedComma.back() = true;
    Out += '\n';
    indent();
  }
}

void JsonWriter::indent() {
  Out.append(2 * NeedComma.size(), ' ');
}

void JsonWriter::beginObject() {
  separate();
  Out += '{';
  NeedComma.push_back(false);
}

void JsonWriter::endObject() {
  bool HadElements = NeedComma.back();
  NeedComma.pop_back();
  if (HadElements) {
    Out += '\n';
    indent();
  }
  Out += '}';
}

void JsonWriter::beginArray() {
  separate();
  Out += '[';
  NeedComma.push_back(false);
}

void JsonWriter::endArray() {
  bool HadElements = NeedComma.back();
  NeedComma.pop_back();
  if (HadElements) {
    Out += '\n';
    indent();
  }
  Out += ']';
}

void JsonWriter::key(std::string_view Name) {
  separate();
  appendQuoted(Out, Name);
  Out += ": ";
  AfterKey = true;
}

void JsonWriter::value(std::string_view Text) {
  separate();
  appendQuoted(Out, Text);
}

/// Appends the decimal digits of \p Number without a temporary string.
template <typename Int>
static void appendInteger(std::string &Out, Int Number) {
  char Buffer[24];
  auto Result = std::to_chars(Buffer, Buffer + sizeof(Buffer), Number);
  Out.append(Buffer, Result.ptr);
}

void JsonWriter::value(uint64_t Number) {
  separate();
  appendInteger(Out, Number);
}

void JsonWriter::value(int64_t Number) {
  separate();
  appendInteger(Out, Number);
}

void JsonWriter::value(double Number) {
  separate();
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.6g", Number);
  Out += Buffer;
}

void JsonWriter::value(bool Flag) {
  separate();
  Out += Flag ? "true" : "false";
}

/// Length of the valid UTF-8 sequence starting at \p Text[Index], or 0
/// when the bytes there do not form one (truncated, overlong, surrogate,
/// or out-of-range encodings all count as invalid).
static size_t utf8SequenceLength(std::string_view Text, size_t Index) {
  auto Byte = [&](size_t Offset) -> unsigned {
    return static_cast<unsigned char>(Text[Index + Offset]);
  };
  auto IsCont = [&](size_t Offset) {
    return Index + Offset < Text.size() && (Byte(Offset) & 0xC0) == 0x80;
  };
  unsigned Lead = Byte(0);
  if (Lead < 0x80)
    return 1;
  if (Lead < 0xC2) // Continuation byte or overlong 2-byte lead.
    return 0;
  if (Lead < 0xE0)
    return IsCont(1) ? 2 : 0;
  if (Lead < 0xF0) {
    if (!IsCont(1) || !IsCont(2))
      return 0;
    unsigned Code = ((Lead & 0x0F) << 12) | ((Byte(1) & 0x3F) << 6);
    if (Code < 0x800)
      return 0; // Overlong.
    if (Code >= 0xD800 && Code <= 0xDFFF)
      return 0; // Surrogate half.
    return 3;
  }
  if (Lead < 0xF5) {
    if (!IsCont(1) || !IsCont(2) || !IsCont(3))
      return 0;
    unsigned Code = ((Lead & 0x07) << 18) | ((Byte(1) & 0x3F) << 12);
    if (Code < 0x10000 || Code > 0x10FFFF)
      return 0; // Overlong or beyond U+10FFFF.
    return 4;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Byte runs
//===----------------------------------------------------------------------===//
//
// Both the escaper and the string parser copy runs of bytes that need no
// attention. Most text has no such byte for long stretches, so a run is
// scanned eight bytes per step with word-wide (SWAR) lane tests, then
// finished byte by byte.

/// \p Byte broadcast to all eight byte lanes of a word.
static constexpr uint64_t lanes(uint8_t Byte) {
  return 0x0101010101010101ull * Byte;
}

/// True when some byte lane of \p Word is below \p Bound (at most 0x80).
/// Exact: a borrow only crosses into a lane above a lane that matched.
static constexpr bool anyLaneBelow(uint64_t Word, uint8_t Bound) {
  return ((Word - lanes(Bound)) & ~Word & lanes(0x80)) != 0;
}

static constexpr bool anyLaneIs(uint64_t Word, uint8_t Byte) {
  return anyLaneBelow(Word ^ lanes(Byte), 1);
}

/// Index of the first byte at or after \p Index in \p Text for which
/// \p Stops holds, or Text.size(). \p WordStops must hold exactly for the
/// words that contain such a byte.
template <typename WordPred, typename BytePred>
static size_t skipRun(std::string_view Text, size_t Index, WordPred WordStops,
                      BytePred Stops) {
  for (; Index + 8 <= Text.size(); Index += 8) {
    uint64_t Word;
    std::memcpy(&Word, Text.data() + Index, sizeof(Word));
    if (WordStops(Word))
      break;
  }
  while (Index < Text.size() &&
         !Stops(static_cast<unsigned char>(Text[Index])))
    ++Index;
  return Index;
}

/// The escaper's run: printable ASCII other than '"' and '\\', the bytes
/// a string literal carries verbatim without further inspection.
static size_t skipPlainAscii(std::string_view Text, size_t Index) {
  return skipRun(
      Text, Index,
      [](uint64_t Word) {
        return (Word & lanes(0x80)) || anyLaneBelow(Word, 0x20) ||
               anyLaneIs(Word, '"') || anyLaneIs(Word, '\\');
      },
      [](unsigned char Byte) {
        return Byte < 0x20 || Byte >= 0x80 || Byte == '"' || Byte == '\\';
      });
}

/// The parser's run inside a string literal: everything but control
/// characters, '"' and '\\' (UTF-8 is not validated on input).
static size_t skipUnescaped(std::string_view Text, size_t Index) {
  return skipRun(
      Text, Index,
      [](uint64_t Word) {
        return anyLaneBelow(Word, 0x20) || anyLaneIs(Word, '"') ||
               anyLaneIs(Word, '\\');
      },
      [](unsigned char Byte) {
        return Byte < 0x20 || Byte == '"' || Byte == '\\';
      });
}

/// Appends the escape sequence of one byte that cannot appear verbatim.
static void appendEscape(std::string &Out, unsigned char Byte) {
  switch (Byte) {
  case '"':
    Out += "\\\"";
    return;
  case '\\':
    Out += "\\\\";
    return;
  case '\n':
    Out += "\\n";
    return;
  case '\r':
    Out += "\\r";
    return;
  case '\t':
    Out += "\\t";
    return;
  default:
    break;
  }
  // Control characters must be escaped (RFC 8259 §7); an invalid UTF-8
  // byte is mapped to its Latin-1 code point (U+0080..U+00FF) so arbitrary
  // (fuzzer- or user-supplied) names still produce a valid document.
  static constexpr char Hex[] = "0123456789abcdef";
  const char Escape[6] = {'\\', 'u', '0', '0', Hex[Byte >> 4],
                          Hex[Byte & 0xF]};
  Out.append(Escape, sizeof(Escape));
}

void JsonWriter::appendQuoted(std::string &Out, std::string_view Raw) {
  Out.reserve(Out.size() + Raw.size() + 2);
  Out += '"';
  // [RunStart, Index) is the pending run of bytes that need no escape:
  // plain ASCII and complete valid UTF-8 sequences.
  size_t RunStart = 0;
  for (size_t Index = skipPlainAscii(Raw, 0); Index < Raw.size();
       Index = skipPlainAscii(Raw, Index)) {
    unsigned char Byte = static_cast<unsigned char>(Raw[Index]);
    if (Byte >= 0x80) {
      if (size_t Length = utf8SequenceLength(Raw, Index)) {
        Index += Length;
        continue;
      }
    }
    Out.append(Raw.data() + RunStart, Index - RunStart);
    appendEscape(Out, Byte);
    RunStart = ++Index;
  }
  Out.append(Raw.data() + RunStart, Raw.size() - RunStart);
  Out += '"';
}

std::string JsonWriter::quote(std::string_view Raw) {
  std::string Quoted;
  appendQuoted(Quoted, Raw);
  return Quoted;
}

bool sxe::writeTextFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << Text;
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// JsonValue + parseJson
//===----------------------------------------------------------------------===//

bool JsonValue::boolValue() const {
  const bool *Flag = std::get_if<bool>(&Data);
  return Flag && *Flag;
}

double JsonValue::numberValue() const {
  const double *Number = std::get_if<double>(&Data);
  return Number ? *Number : 0;
}

const std::string &JsonValue::stringValue() const {
  static const std::string Empty;
  const std::string *Text = std::get_if<std::string>(&Data);
  return Text ? *Text : Empty;
}

const JsonValue::Array &JsonValue::array() const {
  static const Array Empty;
  const Array *Elements = std::get_if<Array>(&Data);
  return Elements ? *Elements : Empty;
}

const JsonValue::Object &JsonValue::members() const {
  static const Object Empty;
  const Object *Members = std::get_if<Object>(&Data);
  return Members ? *Members : Empty;
}

const JsonValue *JsonValue::find(std::string_view Name) const {
  const Object *Members = std::get_if<Object>(&Data);
  if (!Members)
    return nullptr;
  for (const auto &[Key, Value] : *Members)
    if (Key == Name)
      return &Value;
  return nullptr;
}

JsonValue *JsonValue::find(std::string_view Name) {
  return const_cast<JsonValue *>(std::as_const(*this).find(Name));
}

std::string JsonValue::stringField(std::string_view Name) const {
  const JsonValue *Member = find(Name);
  return Member ? Member->stringValue() : std::string();
}

std::string JsonValue::takeStringField(std::string_view Name) {
  JsonValue *Member = find(Name);
  std::string *Text = Member ? std::get_if<std::string>(&Member->Data)
                             : nullptr;
  if (!Text)
    return std::string();
  std::string Taken = std::move(*Text);
  Text->clear();
  return Taken;
}

uint64_t JsonValue::uint64Field(std::string_view Name,
                                uint64_t Default) const {
  const JsonValue *Member = find(Name);
  if (!Member || !Member->isNumber())
    return Default;
  // 2^64 is exact as a double. The negated test also rejects NaN, so the
  // cast below only ever sees values it is defined for.
  double Value = Member->numberValue();
  if (!(Value >= 0 && Value < 18446744073709551616.0))
    return Default;
  return static_cast<uint64_t>(Value);
}

/// Strict RFC 8259 recursive-descent parser over an in-memory document.
/// Values are parsed in place into default-constructed nodes.
class sxe::JsonParser {
public:
  JsonParser(std::string_view Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool parseDocument(JsonValue &Out) {
    Out = JsonValue();
    skipWhitespace();
    if (!parseValue(Out, 0))
      return false;
    skipWhitespace();
    if (Pos != Text.size())
      return fail("trailing garbage after the document");
    return true;
  }

private:
  static constexpr unsigned MaxDepth = 256;

  bool fail(const std::string &Message) {
    Error = Message + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWhitespace() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        break;
      ++Pos;
    }
  }

  bool consume(char Expected, const char *What) {
    if (Pos >= Text.size() || Text[Pos] != Expected)
      return fail(std::string("expected ") + What);
    ++Pos;
    return true;
  }

  bool literal(std::string_view Word) {
    if (Text.compare(Pos, Word.size(), Word) != 0)
      return fail("malformed literal");
    Pos += Word.size();
    return true;
  }

  /// Parses one value into the default-constructed \p Out.
  bool parseValue(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of document");
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      return parseString(Out.Data.emplace<std::string>());
    case 't':
      Out.Data.emplace<bool>(true);
      return literal("true");
    case 'f':
      Out.Data.emplace<bool>(false);
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return parseNumber(Out.Data.emplace<double>());
    }
  }

  // Containers parse each child in place into a slot appended to their
  // own vector: a child never touches its parent's vector, so the slot
  // stays put while the child (and its subtree) is parsed.

  bool parseObject(JsonValue &Out, unsigned Depth) {
    ++Pos; // '{'
    JsonValue::Object &Members = Out.Data.emplace<JsonValue::Object>();
    skipWhitespace();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWhitespace();
      auto &[Key, Value] = Members.emplace_back();
      if (!parseString(Key))
        return false;
      skipWhitespace();
      if (!consume(':', "':'"))
        return false;
      skipWhitespace();
      if (!parseValue(Value, Depth + 1))
        return false;
      skipWhitespace();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parseArray(JsonValue &Out, unsigned Depth) {
    ++Pos; // '['
    JsonValue::Array &Elements = Out.Data.emplace<JsonValue::Array>();
    skipWhitespace();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWhitespace();
      if (!parseValue(Elements.emplace_back(), Depth + 1))
        return false;
      skipWhitespace();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  static void appendUtf8(std::string &Out, unsigned Code) {
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

  bool parseHex4(unsigned &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (unsigned Index = 0; Index < 4; ++Index) {
      char C = Text[Pos + Index];
      unsigned Digit;
      if (C >= '0' && C <= '9')
        Digit = C - '0';
      else if (C >= 'a' && C <= 'f')
        Digit = 10 + (C - 'a');
      else if (C >= 'A' && C <= 'F')
        Digit = 10 + (C - 'A');
      else
        return fail("bad hex digit in \\u escape");
      Out = Out * 16 + Digit;
    }
    Pos += 4;
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"', "'\"'"))
      return false;
    Out.clear();
    while (true) {
      size_t RunStart = Pos;
      Pos = skipUnescaped(Text, Pos);
      Out.append(Text.data() + RunStart, Pos - RunStart);
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C != '\\')
        return fail("raw control character in string");
      ++Pos; // backslash
      if (Pos >= Text.size())
        return fail("truncated escape");
      char Escape = Text[Pos++];
      switch (Escape) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Code = 0;
        if (!parseHex4(Code))
          return false;
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          // High surrogate: require the paired low surrogate.
          if (Pos + 1 >= Text.size() || Text[Pos] != '\\' ||
              Text[Pos + 1] != 'u')
            return fail("unpaired high surrogate");
          Pos += 2;
          unsigned Low = 0;
          if (!parseHex4(Low))
            return false;
          if (Low < 0xDC00 || Low > 0xDFFF)
            return fail("invalid low surrogate");
          Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
        } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
          return fail("unpaired low surrogate");
        }
        appendUtf8(Out, Code);
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
  }

  bool parseNumber(double &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    auto Digits = [&] {
      size_t Before = Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
      return Pos > Before;
    };
    if (Pos < Text.size() && Text[Pos] == '0') {
      ++Pos; // No leading zeros (RFC 8259 §6).
    } else if (!Digits()) {
      return fail("malformed number");
    }
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      if (!Digits())
        return fail("malformed number fraction");
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (!Digits())
        return fail("malformed number exponent");
    }
    // The grammar above already holds, so from_chars consumes exactly
    // [Start, Pos). It reports out of range for a result that overflows to
    // infinity or underflows to zero (subnormals parse normally).
    const char *First = Text.data() + Start;
    const char *Last = Text.data() + Pos;
    if (std::from_chars(First, Last, Out).ec ==
        std::errc::result_out_of_range) {
      // strtod rounds both ways without failing: keep its underflow (the
      // nearest double, a signed zero) and refuse its overflow.
      Out = std::strtod(std::string(First, Last).c_str(), nullptr);
      if (std::isinf(Out)) {
        Pos = Start;
        return fail("number out of range");
      }
    }
    return true;
  }

  std::string_view Text;
  std::string &Error;
  size_t Pos = 0;
};

bool sxe::parseJson(std::string_view Text, JsonValue &Out,
                    std::string &Error) {
  return JsonParser(Text, Error).parseDocument(Out);
}
