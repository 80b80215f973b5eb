// Minimal JSON value model + recursive-descent parser (RFC 8259 subset).
//
// The observability stack writes JSON with hand-rolled emitters (obs::to_json,
// the JSONL ledger) because the write side wants exact control over field
// order and float formatting. The *read* side — `ganopc report`, tools/trace_stitch
// and the ledger round-trip tests — needs a real parser, which lives here so
// every consumer agrees on one grammar.
//
// Scope: objects, arrays, strings (with \uXXXX escapes decoded to UTF-8),
// doubles, bools, null. Numbers are always parsed as double (the ledger and
// BENCH schemas never need 64-bit-exact integers above 2^53). Object key order
// is preserved; duplicate keys keep the last value on lookup.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ganopc::json {

enum class Type { Null, Bool, Number, String, Array, Object };

class Value {
 public:
  Value() = default;  ///< null
  static Value boolean(bool b);
  static Value number(double d);
  static Value string(std::string s);
  static Value array();
  static Value object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  /// Typed accessors; throw ganopc::Error on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& items() const;                          ///< array
  const std::vector<std::pair<std::string, Value>>& members() const;  ///< object

  /// Object lookup (last duplicate wins); nullptr when absent or not an
  /// object — so chained lookups degrade to nullptr instead of throwing.
  const Value* find(std::string_view key) const;
  /// find() + as_number(), with `fallback` when absent; throws on non-number.
  double number_or(std::string_view key, double fallback) const;
  /// find() + as_string(), with `fallback` when absent.
  std::string string_or(std::string_view key, std::string_view fallback) const;

  // Builder API (used by tests; production emitters write text directly).
  void push_back(Value v);                      ///< array append
  void set(std::string key, Value v);           ///< object append
  std::string dump() const;                     ///< compact serialization

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Parse one JSON document; throws ganopc::Error with offset context on any
/// syntax error or trailing garbage.
Value parse(std::string_view text);

/// Parse attempt that reports failure instead of throwing (the ledger reader
/// uses this to stop cleanly at a torn final line after a crash).
bool try_parse(std::string_view text, Value& out);

/// Append `s` to `out` with JSON string escaping ( \" \\ \n \r \t and \u00XX
/// for remaining control bytes). Shared by every hand-rolled emitter.
void escape_into(std::string& out, std::string_view s);

}  // namespace ganopc::json
