#pragma once

// Minimal recursive-descent JSON parser for test assertions. Parses the
// full JSON grammar (objects, arrays, strings with escapes, numbers,
// booleans, null) into a tagged-union Value tree. Throws std::runtime_error
// on malformed input — a failed parse *is* the test failure.

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace vhadoop::testutil {

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::Object; }
  bool is_array() const { return type == Type::Array; }
  bool is_number() const { return type == Type::Number; }
  bool is_string() const { return type == Type::String; }

  bool has(const std::string& key) const {
    return type == Type::Object && object.count(key) > 0;
  }
  const JsonValue& at(const std::string& key) const {
    if (!has(key)) throw std::runtime_error("mini_json: missing key '" + key + "'");
    return object.at(key);
  }
  const JsonValue& at(std::size_t i) const {
    if (type != Type::Array || i >= array.size()) {
      throw std::runtime_error("mini_json: bad array index");
    }
    return array[i];
  }
};

class JsonParser {
 public:
  static JsonValue parse(const std::string& text) {
    JsonParser p(text);
    JsonValue v = p.value();
    p.skip_ws();
    if (p.pos_ != text.size()) throw std::runtime_error("mini_json: trailing data");
    return v;
  }

 private:
  explicit JsonParser(const std::string& text) : text_(text) {}

  const std::string& text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("mini_json: " + what + " at offset " + std::to_string(pos_));
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  char get() {
    char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (get() != c) fail(std::string("expected '") + c + "'");
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return keyword("true", {.type = JsonValue::Type::Bool, .boolean = true});
      case 'f': return keyword("false", {.type = JsonValue::Type::Bool, .boolean = false});
      case 'n': return keyword("null", {.type = JsonValue::Type::Null});
      default: return number();
    }
  }

  JsonValue keyword(const std::string& word, JsonValue v) {
    if (text_.compare(pos_, word.size(), word) != 0) fail("bad keyword");
    pos_ += word.size();
    return v;
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      get();
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object[key] = value();
      skip_ws();
      char c = get();
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      get();
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      char c = get();
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.type = JsonValue::Type::String;
    v.str = parse_string();
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = get();
      if (c == '"') return out;
      if (c == '\\') {
        char e = get();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            // Tests only need ASCII round-trips; decode the code unit and
            // keep the low byte.
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            out += static_cast<char>(
                std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  /// JSON's number grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
  /// ending at a delimiter: "07", "1.2.3" or "1-2" is one malformed number,
  /// not a number followed by something else.
  JsonValue number() {
    const std::size_t start = pos_;
    const auto at = [this](const char* chars) {
      return pos_ < text_.size() && text_[pos_] != '\0' && std::strchr(chars, text_[pos_]);
    };
    const auto digits = [&] {
      if (!at("0123456789")) fail("bad number");
      while (at("0123456789")) ++pos_;
    };
    if (!at("-0123456789")) fail("expected a value");
    if (at("-")) ++pos_;
    if (at("0")) ++pos_;
    else digits();
    if (at(".")) {
      ++pos_;
      digits();
    }
    if (at("eE")) {
      ++pos_;
      if (at("+-")) ++pos_;
      digits();
    }
    if (at("0123456789.eE+-")) fail("bad number");
    JsonValue v;
    v.type = JsonValue::Type::Number;
    v.number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return v;
  }
};

}  // namespace vhadoop::testutil
