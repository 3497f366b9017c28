#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace surf {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  // Backwards so duplicate keys (possible via AppendMember) resolve
  // last-wins.
  for (auto it = members_.rbegin(); it != members_.rend(); ++it) {
    if (it->first == key) return &it->second;
  }
  return nullptr;
}

void JsonValue::Set(std::string key, JsonValue v) {
  for (auto& m : members_) {
    if (m.first == key) {
      m.second = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

namespace {

/// Recursive-descent JSON parser over a raw byte range.
class Parser {
 public:
  Parser(const std::string& text, const JsonParseLimits& limits)
      : text_(text), limits_(limits) {}

  StatusOr<JsonValue> Run() {
    JsonValue value;
    SURF_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  Status ParseValue(JsonValue* out, size_t depth) {
    if (depth > limits_.max_depth) {
      return Error("nesting deeper than " +
                   std::to_string(limits_.max_depth));
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        SURF_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue(std::move(s));
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", JsonValue(true), out);
      case 'f':
        return ParseLiteral("false", JsonValue(false), out);
      case 'n':
        return ParseLiteral("null", JsonValue(), out);
      default:
        // Anything else must be a number; the non-JSON NaN/Infinity
        // spellings fall through to the number grammar and are rejected.
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(const char* word, JsonValue value, JsonValue* out) {
    const size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) {
      return Error(std::string("invalid literal (expected '") + word + "')");
    }
    pos_ += len;
    *out = std::move(value);
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
      // fall through to digits
    }
    if (pos_ >= text_.size() || !std::isdigit(
            static_cast<unsigned char>(text_[pos_]))) {
      return Error("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("digit required after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("digit required in exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Error("invalid number '" + token + "'");
    }
    // Overflowing literals (1e999) parse to ±inf; JSON has no encoding
    // for non-finite values, so reject rather than smuggle them through.
    if (!std::isfinite(v)) {
      return Error("number '" + token + "' is out of double range");
    }
    *out = JsonValue(v);
    return Status::OK();
  }

  Status ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Error("raw control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return Error("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          SURF_RETURN_IF_ERROR(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a \uDC00..\uDFFF low half must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired UTF-16 surrogate");
            }
            pos_ += 2;
            unsigned lo = 0;
            SURF_RETURN_IF_ERROR(ParseHex4(&lo));
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired UTF-16 surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Status ParseArray(JsonValue* out, size_t depth) {
    Consume('[');
    *out = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue element;
      SURF_RETURN_IF_ERROR(ParseValue(&element, depth + 1));
      out->Append(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(JsonValue* out, size_t depth) {
    Consume('{');
    *out = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      std::string key;
      SURF_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      SURF_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->AppendMember(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  const JsonParseLimits limits_;
  size_t pos_ = 0;
};

void WriteNumber(double v, std::string* out) {
  if (!std::isfinite(v)) {
    // JSON cannot represent NaN/Inf; null is the conventional stand-in.
    out->append("null");
    return;
  }
  // Integers within the double-exact range print without an exponent or
  // fraction, which keeps ids and counts readable.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    out->append(buf);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void WriteValue(const JsonValue& value, int indent, int level,
                std::string* out) {
  const bool pretty = indent > 0;
  const auto newline = [&](int lvl) {
    if (!pretty) return;
    out->push_back('\n');
    out->append(static_cast<size_t>(indent * lvl), ' ');
  };
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out->append("null");
      break;
    case JsonValue::Type::kBool:
      out->append(value.bool_value() ? "true" : "false");
      break;
    case JsonValue::Type::kNumber:
      WriteNumber(value.number_value(), out);
      break;
    case JsonValue::Type::kString:
      out->push_back('"');
      out->append(JsonEscape(value.string_value()));
      out->push_back('"');
      break;
    case JsonValue::Type::kArray: {
      if (value.array().empty()) {
        out->append("[]");
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < value.array().size(); ++i) {
        if (i > 0) out->push_back(',');
        newline(level + 1);
        WriteValue(value.array()[i], indent, level + 1, out);
      }
      newline(level);
      out->push_back(']');
      break;
    }
    case JsonValue::Type::kObject: {
      if (value.members().empty()) {
        out->append("{}");
        break;
      }
      out->push_back('{');
      for (size_t i = 0; i < value.members().size(); ++i) {
        if (i > 0) out->push_back(',');
        newline(level + 1);
        out->push_back('"');
        out->append(JsonEscape(value.members()[i].first));
        out->append(pretty ? "\": " : "\":");
        WriteValue(value.members()[i].second, indent, level + 1, out);
      }
      newline(level);
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

StatusOr<JsonValue> ParseJson(const std::string& text,
                              const JsonParseLimits& limits) {
  return Parser(text, limits).Run();
}

std::string WriteJson(const JsonValue& value) {
  std::string out;
  WriteValue(value, 0, 0, &out);
  return out;
}

std::string WriteJsonPretty(const JsonValue& value) {
  std::string out;
  WriteValue(value, 2, 0, &out);
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\b': out.append("\\b"); break;
      case '\f': out.append("\\f"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(raw);
        }
    }
  }
  return out;
}

}  // namespace surf
