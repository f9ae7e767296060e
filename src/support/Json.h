//===- support/Json.h - Minimal JSON emission --------------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small streaming JSON writer used by the pass-manager statistics
/// reports, the obs/ trace, remarks, and metrics exporters, and the
/// benchmark binaries (BENCH_*.json). Commas and nesting are handled
/// automatically; strings are escaped per RFC 8259 — including control
/// characters and invalid UTF-8 bytes in user-controlled names, which are
/// escaped as \uXXXX so the output is always a valid JSON document.
/// Output is pretty-printed with two-space indentation so goldens diff
/// readably.
///
/// Both halves work on byte runs: the writer escapes straight into its
/// output buffer, appending each stretch of bytes that needs no escape with
/// one append, and the parser copies each unescaped stretch of a string the
/// same way. Every emitter in the tree (serve frames, persistent-cache
/// entries, the trace, event and remark writers) goes through
/// JsonWriter::appendQuoted, so there is one escaper and no temporaries.
///
/// The matching reader half, parseJson, is a strict recursive-descent
/// RFC 8259 parser used to validate emitted documents (obs well-formedness
/// tests, `sxetool --validate-obs`) and to decode the serve wire protocol
/// and persistent-cache entries. It never throws: a number that overflows
/// a double is a parse error, one that underflows reads as the nearest
/// double.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_SUPPORT_JSON_H
#define SXE_SUPPORT_JSON_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace sxe {

class JsonParser;

/// Streaming JSON writer. Usage:
///
///   JsonWriter J;
///   J.beginObject();
///   J.keyValue("schema", "sxe.pass-stats.v1");
///   J.key("passes"); J.beginArray(); ... J.endArray();
///   J.endObject();
///   std::string Text = J.str();
class JsonWriter {
public:
  void beginObject();
  void endObject();
  void beginArray();
  void endArray();

  /// Emits an object key; must be followed by a value or container.
  void key(std::string_view Name);

  void value(std::string_view Text);
  /// Keeps string literals from converting to bool.
  void value(const char *Text) { value(std::string_view(Text)); }
  void value(uint64_t Number);
  void value(int64_t Number);
  void value(unsigned Number) { value(static_cast<uint64_t>(Number)); }
  void value(double Number);
  void value(bool Flag);

  template <typename T> void keyValue(std::string_view Name, const T &Val) {
    key(Name);
    value(Val);
  }

  /// Returns the accumulated document. All containers must be closed.
  const std::string &str() const { return Out; }

  /// Moves the accumulated document out, leaving the writer empty.
  std::string take() {
    std::string Text = std::move(Out);
    Out.clear();
    return Text;
  }

  /// Appends \p Raw to \p Out as a JSON string literal (with quotes).
  static void appendQuoted(std::string &Out, std::string_view Raw);

  /// Escapes \p Raw as a JSON string literal (with quotes).
  static std::string quote(std::string_view Raw);

private:
  void separate();
  void indent();

  std::string Out;
  /// One entry per open container: true while the container already holds
  /// at least one element (so the next element needs a comma).
  std::vector<bool> NeedComma;
  bool AfterKey = false;
};

/// Writes \p Text to \p Path. Returns false (and leaves a partial file at
/// worst) on I/O failure.
bool writeTextFile(const std::string &Path, const std::string &Text);

/// A parsed JSON value. Objects preserve member order (emission order
/// matters to the golden files, so the reader reports it faithfully).
/// A node holds only its own alternative, so it stays small (40 bytes)
/// and cheap to move while the parser grows the tree.
class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  Kind kind() const { return static_cast<Kind>(Data.index()); }
  bool isNull() const { return kind() == Kind::Null; }
  bool isBool() const { return kind() == Kind::Bool; }
  bool isNumber() const { return kind() == Kind::Number; }
  bool isString() const { return kind() == Kind::String; }
  bool isArray() const { return kind() == Kind::Array; }
  bool isObject() const { return kind() == Kind::Object; }

  /// Scalar and container views; each reads as false, 0 or empty when the
  /// value is of another kind.
  bool boolValue() const;
  double numberValue() const;
  const std::string &stringValue() const;
  const Array &array() const;
  const Object &members() const;

  /// The elements of an array value, mutable, for decoders that move
  /// strings out of a tree they own. Requires isArray().
  Array &array() { return std::get<Array>(Data); }

  /// Object member lookup; null when absent or not an object.
  const JsonValue *find(std::string_view Name) const;
  JsonValue *find(std::string_view Name);

  /// Convenience: the string value of member \p Name, or "" when absent
  /// or not a string.
  std::string stringField(std::string_view Name) const;

  /// Like stringField, but moves the string out of this tree (leaving it
  /// empty), for decoders that own the parsed document.
  std::string takeStringField(std::string_view Name);

  /// The number member \p Name as a uint64_t, truncated toward zero;
  /// \p Default when absent, not a number, negative, NaN, or >= 2^64. The
  /// one checked way to read a count or id from untrusted JSON.
  uint64_t uint64Field(std::string_view Name, uint64_t Default = 0) const;

private:
  friend class JsonParser;

  /// Alternatives in Kind order, so index() is the kind.
  std::variant<std::monostate, bool, double, std::string, Array, Object> Data;
};

/// Parses one complete JSON document from \p Text (trailing whitespace
/// allowed, anything else is an error). Returns false and describes the
/// problem in \p Error on malformed input, including a number too large
/// for a double ("number out of range"). Never throws.
bool parseJson(std::string_view Text, JsonValue &Out, std::string &Error);

} // namespace sxe

#endif // SXE_SUPPORT_JSON_H
