#include "campaign/json.hpp"

#include <cctype>
#include <cstdio>
#include <cmath>
#include <stdexcept>

namespace netcons::campaign::json {

double Value::as_double() const {
  if (number.empty()) throw std::runtime_error("json: expected number");
  return std::strtod(number.c_str(), nullptr);
}

std::uint64_t Value::as_u64() const {
  if (number.empty()) throw std::runtime_error("json: expected number");
  return std::strtoull(number.c_str(), nullptr, 10);
}

bool Value::as_bool() const {
  if (const auto* b = std::get_if<bool>(&value)) return *b;
  throw std::runtime_error("json: expected boolean");
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&value)) return *s;
  throw std::runtime_error("json: expected string");
}

const Object& Value::as_object() const {
  if (const auto* o = std::get_if<Object>(&value)) return *o;
  throw std::runtime_error("json: expected object");
}

const Array& Value::as_array() const {
  if (const auto* a = std::get_if<Array>(&value)) return *a;
  throw std::runtime_error("json: expected array");
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  [[nodiscard]] Value parse() {
    Value v = value();
    skip_whitespace();
    if (pos_ != text_.size()) throw std::runtime_error("json: trailing content");
    return v;
  }

 private:
  [[nodiscard]] Value value() {
    skip_whitespace();
    if (pos_ >= text_.size()) throw std::runtime_error("json: unexpected end");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) throw std::runtime_error("json: nesting too deep");
      ++depth_;
      Value nested = c == '{' ? object() : array();
      --depth_;
      return nested;
    }
    if (c == '"') return Value{string(), {}};
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      expect_literal("null");
      return Value{nullptr, {}};
    }
    return number();
  }

  [[nodiscard]] Value object() {
    ++pos_;  // '{'
    Object out;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Value{std::move(out), {}};
    }
    while (true) {
      skip_whitespace();
      std::string key = string();
      skip_whitespace();
      if (peek() != ':') throw std::runtime_error("json: expected ':'");
      ++pos_;
      out.emplace(std::move(key), value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Value{std::move(out), {}};
      }
      throw std::runtime_error("json: expected ',' or '}'");
    }
  }

  [[nodiscard]] Value array() {
    ++pos_;  // '['
    Array out;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Value{std::move(out), {}};
    }
    while (true) {
      out.push_back(value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Value{std::move(out), {}};
      }
      throw std::runtime_error("json: expected ',' or ']'");
    }
  }

  [[nodiscard]] std::string string() {
    if (peek() != '"') throw std::runtime_error("json: expected string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) throw std::runtime_error("json: bad \\u");
            unsigned code = 0;
            for (const char h : text_.substr(pos_, 4)) {  // Exactly four hex digits.
              const auto digit = static_cast<unsigned char>(h);
              if (!std::isxdigit(digit)) throw std::runtime_error("json: bad \\u");
              code = code * 16 + (std::isdigit(digit) ? digit - '0' : (digit | 0x20) - 'a' + 10);
            }
            pos_ += 4;
            if (code > 0x7F) throw std::runtime_error("json: non-ASCII \\u unsupported");
            out += static_cast<char>(code);
            break;
          }
          default: throw std::runtime_error("json: bad escape");
        }
      } else {
        out += c;
      }
    }
    throw std::runtime_error("json: unterminated string");
  }

  [[nodiscard]] Value boolean() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return Value{true, {}};
    }
    expect_literal("false");
    return Value{false, {}};
  }

  [[nodiscard]] Value number() {
    const std::size_t start = pos_;
    auto is_number_char = [](char c) {
      return std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+' ||
             c == '.' || c == 'e' || c == 'E';
    };
    while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
    if (pos_ == start) throw std::runtime_error("json: unexpected character");
    Value v{nullptr, std::string(text_.substr(start, pos_ - start))};
    return v;
  }

  void expect_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) {
      throw std::runtime_error("json: unexpected token");
    }
    pos_ += len;
  }

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) throw std::runtime_error("json: unexpected end");
    return text_[pos_];
  }

  void skip_whitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< Arrays/objects open around the current position.
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse(); }

const Value& field(const Object& object, const std::string& key) {
  const auto it = object.find(key);
  if (it == object.end()) throw std::runtime_error("json: missing field '" + key + "'");
  return it->second;
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {  // JSON has no inf/nan; campaigns never emit them.
    out += "0";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

}  // namespace netcons::campaign::json
