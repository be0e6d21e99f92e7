#ifndef TDG_UTIL_JSON_H_
#define TDG_UTIL_JSON_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/statusor.h"

namespace tdg::util {

/// Streams JSON text into a caller-owned string: the one formatter behind
/// JsonValue::Serialize / SerializePretty and every hot wire form that is
/// written without building a DOM (DESIGN.md §6, §13). Callers emit values
/// in document order; the writer places the commas, the key separators and
/// (with `indent` > 0) the newlines and padding. Object keys are written in
/// the order given — the caller owns key order.
///
/// Numbers print as JsonValue always has: an integral value below 1e15 in
/// magnitude as an integer ("%lld"), anything else as "%.17g" (which
/// round-trips every double), both via std::to_chars. Non-finite numbers
/// are a TDG_CHECK failure: JSON has no NaN or Inf.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out, int indent = 0)
      : out_(out), indent_(indent) {}

  void Null();
  void Bool(bool value);
  void Number(double value);
  void String(std::string_view value);
  /// The next member's key; its value follows as the next call.
  void Key(std::string_view key);
  void BeginArray();
  void EndArray();
  void BeginObject();
  void EndObject();

 private:
  /// Separator and (pretty) line break before a value or a key.
  void BeforeValue();
  void Close(char bracket);
  void NewLine();

  std::string& out_;
  int indent_;
  std::vector<int> counts_;  // per open container: members written so far
  bool after_key_ = false;
};

/// A minimal JSON document model (null / bool / number / string / array /
/// object) with a strict RFC 8259 parser and a serializer. Used for
/// experiment-result export and config files; deliberately small — no
/// comments, no NaN/Inf, numbers are doubles.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// std::map keeps key order deterministic (sorted), which makes golden
  /// tests and diffs stable.
  using Object = std::map<std::string, JsonValue>;

  /// Constructs null.
  JsonValue() = default;
  JsonValue(bool value) : type_(Type::kBool), bool_(value) {}
  JsonValue(double value) : type_(Type::kNumber), number_(value) {}
  JsonValue(int value)
      : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(long long value)
      : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(const char* value) : type_(Type::kString), string_(value) {}
  JsonValue(std::string value)
      : type_(Type::kString), string_(std::move(value)) {}
  JsonValue(Array value)
      : type_(Type::kArray), array_(std::move(value)) {}
  JsonValue(Object value)
      : type_(Type::kObject), object_(std::move(value)) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue MakeArray() { return JsonValue(Array{}); }
  static JsonValue MakeObject() { return JsonValue(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; abort via TDG_CHECK on type mismatch (use the
  /// is_* predicates or Get* for fallible access).
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& AsArray();
  const Object& AsObject() const;
  Object& AsObject();

  /// Object field lookup; NotFound if absent or not an object.
  util::StatusOr<JsonValue> GetField(std::string_view key) const;

  /// Convenience appenders (valid on arrays/objects only).
  void Append(JsonValue value);
  void Set(const std::string& key, JsonValue value);

  /// Compact serialization ({"a":1,...}).
  std::string Serialize() const;
  /// Indented serialization (2 spaces).
  std::string SerializePretty() const;

  /// Strict parse of a complete JSON document (trailing junk is an error).
  static util::StatusOr<JsonValue> Parse(std::string_view text);

  bool operator==(const JsonValue& other) const;

 private:
  void WriteTo(JsonWriter& writer) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Escapes a string for embedding in JSON (adds surrounding quotes).
std::string JsonEscape(std::string_view text);

/// The JSON string form of `text` (quotes included) in two steps, for a
/// writer that sizes its whole output before writing it: JsonStringSize is
/// the exact byte count, and WriteJsonString writes those bytes at `dest`
/// and returns the end. JsonWriter::String is these two calls, so every
/// JSON string this repo writes goes through the one escape rule:
/// '"', '\\', \n, \r, \t, \b and \f get their two-byte escapes, other
/// bytes below 0x20 are \u00XX, and every other byte is copied as is.
size_t JsonStringSize(std::string_view text);
char* WriteJsonString(std::string_view text, char* dest);

}  // namespace tdg::util

#endif  // TDG_UTIL_JSON_H_
