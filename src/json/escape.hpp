// The one JSON string-escape decoder, shared by json::parse and
// json::Scanner so both accept the same escapes and turn each into the
// same bytes (json/number.hpp does the same for numbers).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace dlc::json {

/// Decodes the escape whose backslash precedes text[pos]: appends the
/// bytes it stands for to *out (skipped when out is null, which only
/// validates) and advances pos past it.  \uXXXX becomes the UTF-8 bytes
/// of that BMP code point; a surrogate half passes through as its own
/// three bytes.  Returns null on success, else json::parse's error
/// message, with pos where the error was found.
inline const char* unescape(std::string_view text, std::size_t& pos,
                            std::string* out) {
  if (pos >= text.size()) return "unterminated string";
  char byte = '\0';
  switch (text[pos++]) {
    case '"':
      byte = '"';
      break;
    case '\\':
      byte = '\\';
      break;
    case '/':
      byte = '/';
      break;
    case 'n':
      byte = '\n';
      break;
    case 't':
      byte = '\t';
      break;
    case 'r':
      byte = '\r';
      break;
    case 'b':
      byte = '\b';
      break;
    case 'f':
      byte = '\f';
      break;
    case 'u': {
      if (pos + 4 > text.size()) return "truncated \\u escape";
      unsigned code = 0;
      for (int i = 0; i < 4; ++i) {
        const char h = text[pos++];
        code <<= 4;
        if (h >= '0' && h <= '9') {
          code |= static_cast<unsigned>(h - '0');
        } else if (h >= 'a' && h <= 'f') {
          code |= static_cast<unsigned>(h - 'a' + 10);
        } else if (h >= 'A' && h <= 'F') {
          code |= static_cast<unsigned>(h - 'A' + 10);
        } else {
          return "invalid \\u escape";
        }
      }
      if (out == nullptr) return nullptr;
      if (code < 0x80) {
        out->push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        out->push_back(static_cast<char>(0xC0 | (code >> 6)));
        out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else {
        out->push_back(static_cast<char>(0xE0 | (code >> 12)));
        out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
      }
      return nullptr;
    }
    default:
      return "invalid escape character";
  }
  if (out != nullptr) out->push_back(byte);
  return nullptr;
}

}  // namespace dlc::json
