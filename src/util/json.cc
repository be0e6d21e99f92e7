#include "util/json.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "util/logging.h"
#include "util/string_util.h"

namespace tdg::util {

bool JsonValue::AsBool() const {
  TDG_CHECK(is_bool());
  return bool_;
}

double JsonValue::AsNumber() const {
  TDG_CHECK(is_number());
  return number_;
}

const std::string& JsonValue::AsString() const {
  TDG_CHECK(is_string());
  return string_;
}

const JsonValue::Array& JsonValue::AsArray() const {
  TDG_CHECK(is_array());
  return array_;
}

JsonValue::Array& JsonValue::AsArray() {
  TDG_CHECK(is_array());
  return array_;
}

const JsonValue::Object& JsonValue::AsObject() const {
  TDG_CHECK(is_object());
  return object_;
}

JsonValue::Object& JsonValue::AsObject() {
  TDG_CHECK(is_object());
  return object_;
}

util::StatusOr<JsonValue> JsonValue::GetField(std::string_view key) const {
  if (!is_object()) {
    return Status::InvalidArgument("GetField on a non-object JSON value");
  }
  auto it = object_.find(std::string(key));
  if (it == object_.end()) {
    return Status::NotFound("no JSON field '" + std::string(key) + "'");
  }
  return it->second;
}

void JsonValue::Append(JsonValue value) {
  TDG_CHECK(is_array());
  array_.push_back(std::move(value));
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  TDG_CHECK(is_object());
  object_[key] = std::move(value);
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

namespace {

// How each byte is written inside a JSON string: '"', '\\' and the five
// named control bytes as '\\' and their letter, every other control byte
// as \u00XX (letter 'u'), and every other byte as itself (letter 0).
constexpr std::array<char, 256> kEscapeLetter = [] {
  std::array<char, 256> letter{};
  for (int c = 0; c < 0x20; ++c) letter[c] = 'u';
  for (const char* pair : {"\"\"", "\\\\", "\nn", "\rr", "\tt", "\bb", "\ff"}) {
    letter[static_cast<unsigned char>(pair[0])] = pair[1];
  }
  return letter;
}();

// Bytes the escape of each byte adds to it.
constexpr std::array<uint8_t, 256> kEscapeExtra = [] {
  std::array<uint8_t, 256> extra{};
  for (int c = 0; c < 256; ++c) {
    extra[c] = kEscapeLetter[c] == 'u' ? 5 : kEscapeLetter[c] != 0;
  }
  return extra;
}();

}  // namespace

size_t JsonStringSize(std::string_view text) {
  size_t size = text.size() + 2;
  for (char c : text) size += kEscapeExtra[static_cast<unsigned char>(c)];
  return size;
}

char* WriteJsonString(std::string_view text, char* dest) {
  static constexpr char kHex[] = "0123456789abcdef";
  *dest++ = '"';
  // Copy runs of plain bytes whole; only escaped bytes are rewritten.
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    const char letter = kEscapeLetter[c];
    if (letter == 0) continue;
    std::memcpy(dest, text.data() + run, i - run);
    dest += i - run;
    run = i + 1;
    *dest++ = '\\';
    *dest++ = letter;
    if (letter == 'u') {
      *dest++ = '0';
      *dest++ = '0';
      *dest++ = kHex[c >> 4];
      *dest++ = kHex[c & 0xf];
    }
  }
  if (run < text.size()) {  // an empty view's data() may be null
    std::memcpy(dest, text.data() + run, text.size() - run);
    dest += text.size() - run;
  }
  *dest++ = '"';
  return dest;
}

void JsonWriter::NewLine() {
  if (indent_ == 0) return;
  out_.push_back('\n');
  out_.append(static_cast<size_t>(indent_) * counts_.size(), ' ');
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (counts_.empty()) return;
  if (counts_.back()++ > 0) out_.push_back(',');
  NewLine();
}

void JsonWriter::Close(char bracket) {
  TDG_CHECK(!counts_.empty() && !after_key_);
  const bool empty = counts_.back() == 0;
  counts_.pop_back();
  if (!empty) NewLine();
  out_.push_back(bracket);
}

void JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
}

void JsonWriter::Number(double value) {
  TDG_CHECK(std::isfinite(value)) << "JSON cannot represent " << value;
  BeforeValue();
  // Integers print without a decimal point; everything else round-trips via
  // %.17g. std::to_chars with a precision is specified as printf's %.*g.
  char buffer[32];
  const std::to_chars_result result =
      value == std::floor(value) && std::abs(value) < 1e15
          ? std::to_chars(buffer, buffer + sizeof(buffer),
                          static_cast<long long>(value))
          : std::to_chars(buffer, buffer + sizeof(buffer), value,
                          std::chars_format::general, 17);
  out_.append(buffer, result.ptr);
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  const size_t at = out_.size();
  out_.resize(at + JsonStringSize(value));
  WriteJsonString(value, out_.data() + at);
}

void JsonWriter::Key(std::string_view key) {
  TDG_CHECK(!after_key_);
  String(key);
  out_ += indent_ > 0 ? ": " : ":";
  after_key_ = true;
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  counts_.push_back(0);
}

void JsonWriter::EndArray() { Close(']'); }

void JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  counts_.push_back(0);
}

void JsonWriter::EndObject() { Close('}'); }

std::string JsonEscape(std::string_view text) {
  std::string out;
  JsonWriter(out).String(text);
  return out;
}

void JsonValue::WriteTo(JsonWriter& writer) const {
  switch (type_) {
    case Type::kNull:
      writer.Null();
      break;
    case Type::kBool:
      writer.Bool(bool_);
      break;
    case Type::kNumber:
      writer.Number(number_);
      break;
    case Type::kString:
      writer.String(string_);
      break;
    case Type::kArray:
      writer.BeginArray();
      for (const JsonValue& element : array_) element.WriteTo(writer);
      writer.EndArray();
      break;
    case Type::kObject:
      writer.BeginObject();
      for (const auto& [key, value] : object_) {
        writer.Key(key);
        value.WriteTo(writer);
      }
      writer.EndObject();
      break;
  }
}

std::string JsonValue::Serialize() const {
  std::string out;
  JsonWriter writer(out);
  WriteTo(writer);
  return out;
}

std::string JsonValue::SerializePretty() const {
  std::string out;
  JsonWriter writer(out, /*indent=*/2);
  WriteTo(writer);
  return out;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  util::StatusOr<JsonValue> ParseDocument() {
    TDG_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos_,
                  message.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  util::StatusOr<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      TDG_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue(std::move(s));
    }
    if (ConsumeLiteral("true")) return JsonValue(true);
    if (ConsumeLiteral("false")) return JsonValue(false);
    if (ConsumeLiteral("null")) return JsonValue::Null();
    return ParseNumber();
  }

  util::StatusOr<JsonValue> ParseObject() {
    Consume('{');
    JsonValue::Object object;
    SkipWhitespace();
    if (Consume('}')) return JsonValue(std::move(object));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected string key in object");
      }
      TDG_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      TDG_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      object[std::move(key)] = std::move(value);
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}' in object");
    }
    return JsonValue(std::move(object));
  }

  util::StatusOr<JsonValue> ParseArray() {
    Consume('[');
    JsonValue::Array array;
    SkipWhitespace();
    if (Consume(']')) return JsonValue(std::move(array));
    while (true) {
      TDG_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']' in array");
    }
    return JsonValue(std::move(array));
  }

  util::StatusOr<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("dangling escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid hex digit in \\u escape");
            }
          }
          // Encode as UTF-8 (basic multilingual plane only; surrogate
          // pairs are rejected — results data is ASCII anyway).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate pairs are not supported");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
    return out;
  }

  util::StatusOr<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a JSON value");
    auto parsed = ParseDouble(text_.substr(start, pos_ - start));
    if (!parsed.ok()) return Error("malformed number");
    return JsonValue(parsed.value());
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

util::StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  JsonParser parser(text);
  return parser.ParseDocument();
}

}  // namespace tdg::util
