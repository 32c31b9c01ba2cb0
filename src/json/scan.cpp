#include "json/scan.hpp"

#include "json/escape.hpp"
#include "json/number.hpp"

namespace dlc::json {

namespace {

inline bool is_json_ws(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

}  // namespace

std::int64_t Token::as_int(std::int64_t fallback) const {
  switch (kind) {
    case Kind::kInt:
      return i;
    case Kind::kUint:
      return static_cast<std::int64_t>(u);
    case Kind::kDouble:
      return double_to_int(d, fallback);
    default:
      return fallback;
  }
}

std::uint64_t Token::as_uint(std::uint64_t fallback) const {
  switch (kind) {
    case Kind::kInt:
      return static_cast<std::uint64_t>(i);
    case Kind::kUint:
      return u;
    case Kind::kDouble:
      return double_to_uint(d, fallback);
    default:
      return fallback;
  }
}

double Token::as_double(double fallback) const {
  switch (kind) {
    case Kind::kInt:
      return static_cast<double>(i);
    case Kind::kUint:
      return static_cast<double>(u);
    case Kind::kDouble:
      return d;
    default:
      return fallback;
  }
}

std::string_view Token::as_string(std::string_view fallback) const {
  return kind == Kind::kString ? sv : fallback;
}

void Scanner::skip_ws() {
  while (pos_ < text_.size() && is_json_ws(text_[pos_])) ++pos_;
}

bool Scanner::consume(char c) {
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool Scanner::enter_object() {
  skip_ws();
  first_member_ = true;
  return consume('{');
}

bool Scanner::enter_array() {
  skip_ws();
  first_element_ = true;
  return consume('[');
}

int Scanner::next_member(std::string_view& key, std::string& key_scratch) {
  skip_ws();
  if (first_member_) {
    first_member_ = false;
    if (consume('}')) return 0;
  } else {
    if (consume('}')) return 0;
    if (!consume(',')) return -1;
    skip_ws();
  }
  if (!scan_string(key, key_scratch)) return -1;
  skip_ws();
  if (!consume(':')) return -1;
  skip_ws();
  return 1;
}

int Scanner::next_element() {
  skip_ws();
  if (first_element_) {
    first_element_ = false;
    if (consume(']')) return 0;
  } else {
    if (consume(']')) return 0;
    if (!consume(',')) return -1;
    skip_ws();
  }
  return 1;
}

bool Scanner::peek_array() {
  skip_ws();
  return pos_ < text_.size() && text_[pos_] == '[';
}

bool Scanner::peek_object() {
  skip_ws();
  return pos_ < text_.size() && text_[pos_] == '{';
}

bool Scanner::at_end() {
  skip_ws();
  return pos_ == text_.size();
}

bool Scanner::scan_string(std::string_view& out, std::string& scratch) {
  if (!consume('"')) return false;
  const std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
    ++pos_;
  }
  if (pos_ >= text_.size()) return false;  // unterminated
  if (text_[pos_] == '"') {  // no escapes: a slice of the payload
    out = text_.substr(start, pos_ - start);
    ++pos_;
    return true;
  }
  // Escape found: decode into scratch.
  scratch.assign(text_.substr(start, pos_ - start));
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') {
      out = scratch;
      return true;
    }
    if (c != '\\') {
      scratch.push_back(c);
    } else if (unescape(text_, pos_, &scratch) != nullptr) {
      return false;
    }
  }
  return false;  // unterminated
}

bool Scanner::skip_string() {
  if (!consume('"')) return false;
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') return true;
    if (c == '\\' && unescape(text_, pos_, nullptr) != nullptr) {
      return false;
    }
  }
  return false;  // unterminated
}

bool Scanner::scan_number(Token& tok) {
  const NumberSpan n = number_span(text_, pos_);
  if (!n.valid) return false;
  tok = to_number(text_.substr(pos_, n.end - pos_), n.is_double);
  pos_ = n.end;
  return true;
}

bool Scanner::scan_token(Token& tok, std::string& scratch) {
  tok = Token{};
  skip_ws();
  if (pos_ >= text_.size()) return false;
  switch (text_[pos_]) {
    case '"': {
      std::string_view sv;
      if (!scan_string(sv, scratch)) return false;
      tok.kind = Token::Kind::kString;
      tok.sv = sv;
      return true;
    }
    case '{':
    case '[':
    case 't':
    case 'f':
    case 'n':
      tok.kind = Token::Kind::kOther;
      return skip_value();
    default:
      return scan_number(tok);
  }
}

bool Scanner::skip_value() { return skip_value_depth(0); }

bool Scanner::skip_value_depth(int depth) {
  if (depth > kMaxDepth) return false;
  skip_ws();
  if (pos_ >= text_.size()) return false;
  switch (text_[pos_]) {
    case '{': {
      ++pos_;
      skip_ws();
      if (consume('}')) return true;
      for (;;) {
        skip_ws();
        if (!skip_string()) return false;
        skip_ws();
        if (!consume(':')) return false;
        if (!skip_value_depth(depth + 1)) return false;
        skip_ws();
        if (consume(',')) continue;
        if (consume('}')) return true;
        return false;
      }
    }
    case '[': {
      ++pos_;
      skip_ws();
      if (consume(']')) return true;
      for (;;) {
        if (!skip_value_depth(depth + 1)) return false;
        skip_ws();
        if (consume(',')) continue;
        if (consume(']')) return true;
        return false;
      }
    }
    case '"':
      return skip_string();
    case 't':
      if (text_.substr(pos_, 4) == "true") {
        pos_ += 4;
        return true;
      }
      return false;
    case 'f':
      if (text_.substr(pos_, 5) == "false") {
        pos_ += 5;
        return true;
      }
      return false;
    case 'n':
      if (text_.substr(pos_, 4) == "null") {
        pos_ += 4;
        return true;
      }
      return false;
    default: {  // validated, not converted
      const NumberSpan n = number_span(text_, pos_);
      pos_ = n.end;
      return n.valid;
    }
  }
}

bool Scanner::value_span(std::string_view& span) {
  skip_ws();
  const std::size_t start = pos_;
  if (!skip_value()) return false;
  span = text_.substr(start, pos_ - start);
  return true;
}

}  // namespace dlc::json
