#ifndef SURF_UTIL_JSON_H_
#define SURF_UTIL_JSON_H_

/// \file
/// \brief Minimal dependency-free JSON: a value type, a strict parser, and
/// a deterministic writer.
///
/// Scope is exactly what the network front-end needs — objects, arrays,
/// finite numbers, strings, booleans, and null. The parser is a
/// depth-limited recursive descent over UTF-8 text that returns
/// InvalidArgument (never crashes, never throws) on malformed input,
/// including the non-JSON `NaN`/`Infinity` tokens. The writer emits
/// doubles with round-trip precision (`%.17g`), so a value that survives
/// Write → Parse is bit-identical — the property the HTTP parity tests
/// rely on. Non-finite doubles have no JSON encoding and are written as
/// `null`.

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace surf {

/// \brief One JSON value: null, bool, number, string, array, or object.
///
/// Objects preserve insertion order (the writer is therefore
/// deterministic for codec-generated values) and are scanned linearly on
/// lookup — our payload objects are small, so no hash map is warranted.
class JsonValue {
 public:
  /// JSON type tag.
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// One "key": value object member.
  using Member = std::pair<std::string, JsonValue>;

  /// Constructs null.
  JsonValue() : type_(Type::kNull) {}
  /// Constructs a boolean.
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  /// Constructs a number.
  JsonValue(double v) : type_(Type::kNumber), number_(v) {}
  /// Constructs a number from an integer (exact for |v| < 2^53).
  JsonValue(int v) : type_(Type::kNumber), number_(v) {}
  /// Constructs a string.
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  /// Constructs a string from a literal.
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}

  /// An empty JSON object.
  static JsonValue Object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }
  /// An empty JSON array.
  static JsonValue Array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }

  /// The value's type tag.
  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// The boolean payload (requires is_bool()).
  bool bool_value() const { return bool_; }
  /// The numeric payload (requires is_number()).
  double number_value() const { return number_; }
  /// The string payload (requires is_string()).
  const std::string& string_value() const { return string_; }

  /// Array elements (requires is_array(); empty otherwise).
  const std::vector<JsonValue>& array() const { return array_; }
  /// Mutable array elements.
  std::vector<JsonValue>& array() { return array_; }
  /// Appends an array element.
  void Append(JsonValue v) { array_.push_back(std::move(v)); }

  /// Object members in insertion order (requires is_object()).
  const std::vector<Member>& members() const { return members_; }

  /// Pointer to the member named `key`, or null when absent (or when this
  /// value is not an object). With duplicate keys the *last* one wins
  /// (RFC 8259 leaves this open; last-wins matches the common parsers).
  const JsonValue* Find(std::string_view key) const;

  /// Sets (or overwrites) the member named `key`. Linear in the member
  /// count — use AppendMember when keys are known to be fresh.
  void Set(std::string key, JsonValue v);

  /// Appends a member without the duplicate-key scan. O(1); used by the
  /// parser, where a per-member scan would make object parsing quadratic
  /// in the member count (a DoS vector on network input). Duplicates are
  /// resolved by Find's last-wins rule.
  void AppendMember(std::string key, JsonValue v) {
    members_.emplace_back(std::move(key), std::move(v));
  }

  /// Number of array elements or object members.
  size_t size() const {
    return type_ == Type::kArray ? array_.size() : members_.size();
  }

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> members_;
};

/// \brief Parser limits: guard rails against adversarial network input.
struct JsonParseLimits {
  /// Maximum nesting depth of arrays/objects.
  size_t max_depth = 96;
};

/// Parses one JSON document. The whole input must be consumed (trailing
/// non-whitespace is an error). Returns InvalidArgument with a
/// position-annotated message on malformed input.
StatusOr<JsonValue> ParseJson(const std::string& text,
                              const JsonParseLimits& limits = {});

/// Serializes a value to compact JSON. Doubles are written with `%.17g`
/// (exact round trip); integral values within the double-exact range are
/// written without a fractional part; non-finite numbers become `null`.
std::string WriteJson(const JsonValue& value);

/// Serializes with two-space indentation (docs/tools output).
std::string WriteJsonPretty(const JsonValue& value);

/// Escapes one string body per RFC 8259 (quotes not included).
std::string JsonEscape(const std::string& s);

}  // namespace surf

#endif  // SURF_UTIL_JSON_H_
