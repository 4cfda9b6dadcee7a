#include "common/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace pml {

Json& JsonObject::operator[](const std::string& key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  entries_.emplace_back(key, Json());
  return entries_.back().second;
}

const Json& JsonObject::at(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  throw JsonError("missing key: " + key);
}

bool JsonObject::contains(const std::string& key) const noexcept {
  for (const auto& [k, v] : entries_) {
    if (k == key) return true;
  }
  return false;
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  // 2^63 is exactly representable as a double; the valid range is
  // [-2^63, 2^63) because the cast truncates toward zero.
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    throw JsonError("number out of integer range");
  }
  return static_cast<std::int64_t>(d);
}

namespace {

/// The bytes dump_string must escape: '"', '\\' and control characters.
constexpr auto kNeedsEscape = [] {
  std::array<bool, 256> t{};
  for (std::size_t c = 0; c < 0x20; ++c) t[c] = true;
  t['"'] = true;
  t['\\'] = true;
  return t;
}();

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  // Plain bytes go out in runs (one append per run, not per byte): the
  // packed model artifact carries multi-MB base64 strings.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (!kNeedsEscape[static_cast<unsigned char>(c)]) continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
}

void dump_number(double d, std::string& out) {
  if (!std::isfinite(d)) throw JsonError("cannot serialize non-finite number");
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  }
}

void indent_to(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

void dump_value(const Json& v, std::string& out, int indent, int depth);

void dump_array(const Json::Array& a, std::string& out, int indent, int depth) {
  if (a.empty()) {
    out += "[]";
    return;
  }
  out += '[';
  bool first = true;
  for (const auto& item : a) {
    if (!first) out += ',';
    first = false;
    indent_to(out, indent, depth + 1);
    dump_value(item, out, indent, depth + 1);
  }
  indent_to(out, indent, depth);
  out += ']';
}

void dump_object(const JsonObject& o, std::string& out, int indent, int depth) {
  if (o.empty()) {
    out += "{}";
    return;
  }
  out += '{';
  bool first = true;
  for (const auto& [key, value] : o) {
    if (!first) out += ',';
    first = false;
    indent_to(out, indent, depth + 1);
    dump_string(key, out);
    out += indent < 0 ? ":" : ": ";
    dump_value(value, out, indent, depth + 1);
  }
  indent_to(out, indent, depth);
  out += '}';
}

void dump_value(const Json& v, std::string& out, int indent, int depth) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    dump_number(v.as_number(), out);
  } else if (v.is_string()) {
    dump_string(v.as_string(), out);
  } else if (v.is_array()) {
    dump_array(v.as_array(), out, indent, depth);
  } else {
    dump_object(v.as_object(), out, indent, depth);
  }
}

/// Recursive-descent JSON parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw JsonError(msg + " at offset " + std::to_string(pos_));
  }

  void skip_ws() noexcept {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  /// The parser recurses once per nesting level, so adversarial input
  /// ("[[[[..." from a network peer) must hit a JsonError long before it
  /// can exhaust the thread's stack. 192 levels is far beyond any
  /// artifact or protocol document this library exchanges.
  static constexpr int kMaxDepth = 192;

  Json parse_value() {
    if (depth_ >= kMaxDepth) fail("nesting deeper than 192 levels");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    ++depth_;
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    --depth_;
    return Json(std::move(obj));
  }

  Json parse_array() {
    ++depth_;
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    --depth_;
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote or backslash in one append.
      std::size_t stop = pos_;
      while (stop < text_.size() && text_[stop] != '"' && text_[stop] != '\\') {
        ++stop;
      }
      out.append(text_, pos_, stop - pos_);
      pos_ = stop;
      if (pos_ >= text_.size()) fail("unterminated string");
      if (text_[pos_++] == '"') break;
      // A backslash: decode one escape.
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid hex digit in \\u escape");
          }
          // Encode BMP code point as UTF-8 (surrogate pairs not needed for
          // the artefacts this library writes).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last || first == last) {
      pos_ = start;
      fail("invalid number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_value(*this, out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace pml
