#include "json/parser.hpp"

#include "json/escape.hpp"
#include "json/number.hpp"

namespace dlc::json {

namespace {

// Every document the scanner accepts must also parse.  Its skip stops
// Scanner::kMaxDepth + 1 levels below where the caller stands, and
// decode_message_fast stands at most three levels deep (the message,
// its seg array, a seg entry).
static_assert(kMaxParseDepth >= Scanner::kMaxDepth + 1 + 3);

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(ParseError* error) {
    skip_ws();
    auto v = parse_value();
    if (!v) {
      fill(error);
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      fill(error);
      return std::nullopt;
    }
    return v;
  }

 private:
  void fill(ParseError* error) const {
    if (error) *error = {pos_, message_};
  }

  void fail(std::string msg) {
    if (message_.empty()) message_ = std::move(msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  std::optional<Value> parse_value() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxParseDepth) {
          fail("document nested too deeply");
          return std::nullopt;
        }
        ++depth_;
        auto v = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        auto s = parse_string();
        if (!s) return std::nullopt;
        return Value(std::move(*s));
      }
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
        return std::nullopt;
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
        return std::nullopt;
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid literal");
        return std::nullopt;
      default:
        return parse_number();
    }
  }

  std::optional<Value> parse_object() {
    ++pos_;  // '{'
    Object obj;
    skip_ws();
    if (consume('}')) return Value(std::move(obj));
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' in object");
        return std::nullopt;
      }
      skip_ws();
      auto val = parse_value();
      if (!val) return std::nullopt;
      obj.insert_or_assign(std::move(*key), std::move(*val));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return Value(std::move(obj));
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<Value> parse_array() {
    ++pos_;  // '['
    Array arr;
    skip_ws();
    if (consume(']')) return Value(std::move(arr));
    while (true) {
      skip_ws();
      auto val = parse_value();
      if (!val) return std::nullopt;
      arr.push_back(std::move(*val));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return Value(std::move(arr));
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
      } else if (const char* error = unescape(text_, pos_, &out)) {
        fail(error);
        return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Value> parse_number() {
    const NumberSpan n = number_span(text_, pos_);
    const std::string_view token = text_.substr(pos_, n.end - pos_);
    pos_ = n.end;
    if (!n.valid) {
      fail("invalid number");
      return std::nullopt;
    }
    const Token num = to_number(token, n.is_double);
    switch (num.kind) {
      case Token::Kind::kInt:
        return Value(num.i);
      case Token::Kind::kUint:
        return Value(num.u);
      default:
        return Value(num.d);
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers open around pos_
  std::string message_;
};

}  // namespace

std::optional<Value> parse(std::string_view text, ParseError* error) {
  return Parser(text).run(error);
}

}  // namespace dlc::json
