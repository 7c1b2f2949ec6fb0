#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace pmware {

bool Json::as_bool() const {
  if (type_ != Type::Bool) throw JsonError("not a bool");
  return bool_;
}

double Json::as_double() const {
  if (type_ != Type::Number) throw JsonError("not a number");
  return num_;
}

std::int64_t Json::as_int() const {
  if (type_ != Type::Number) throw JsonError("not a number");
  // A double holds every integer below 2^53 exactly; at or past it the
  // parser may already have rounded the text, so the value is not known.
  if (!(std::abs(num_) < 0x1p53)) throw JsonError("integer out of range");
  if (num_ != std::trunc(num_)) throw JsonError("not an integer");
  return static_cast<std::int64_t>(num_);
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) throw JsonError("not a string");
  return str_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::Array) throw JsonError("not an array");
  return arr_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::Object) throw JsonError("not an object");
  return obj_;
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("missing key: " + key);
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return type_ == Type::Object && obj_.count(key) > 0;
}

double Json::get_double(const std::string& key, double fallback) const {
  return contains(key) && at(key).is_number() ? at(key).as_double() : fallback;
}

std::int64_t Json::get_int(const std::string& key, std::int64_t fallback) const {
  return contains(key) && at(key).is_number() ? at(key).as_int() : fallback;
}

std::string Json::get_string(const std::string& key,
                             const std::string& fallback) const {
  return contains(key) && at(key).is_string() ? at(key).as_string() : fallback;
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  return contains(key) && at(key).is_bool() ? at(key).as_bool() : fallback;
}

Json& Json::set(const std::string& key, Json value) {
  if (type_ == Type::Null) type_ = Type::Object;
  if (type_ != Type::Object) throw JsonError("set on non-object");
  obj_[key] = std::move(value);
  return *this;
}

Json& Json::push_back(Json value) {
  if (type_ == Type::Null) type_ = Type::Array;
  if (type_ != Type::Array) throw JsonError("push_back on non-array");
  arr_.push_back(std::move(value));
  return *this;
}

const Json& Json::operator[](std::size_t i) const {
  const auto& arr = as_array();
  if (i >= arr.size()) throw JsonError("array index out of range");
  return arr[i];
}

std::size_t Json::size() const {
  if (type_ == Type::Array) return arr_.size();
  if (type_ == Type::Object) return obj_.size();
  throw JsonError("size on non-container");
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Number: return num_ == other.num_;
    case Type::String: return str_ == other.str_;
    case Type::Array: return arr_ == other.arr_;
    case Type::Object: return obj_ == other.obj_;
  }
  return false;
}

namespace {

void escape_to(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_to(std::string& out, double d) {
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: number_to(out, num_); break;
    case Type::String: escape_to(out, str_); break;
    case Type::Array: {
      if (arr_.empty()) { out += "[]"; break; }
      out += '[';
      bool first = true;
      for (const auto& v : arr_) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::Object: {
      if (obj_.empty()) { out += "{}"; break; }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        escape_to(out, k);
        out += ':';
        if (indent > 0) out += ' ';
        v.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0, 0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  dump_to(out, 2, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') { take(); return Json(std::move(obj)); }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') { take(); return Json(std::move(arr)); }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        const char e = take();
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
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // UTF-8 encode (BMP only; surrogate pairs not needed for our data)
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected value");
    double value = 0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_)
      fail("bad number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace pmware
