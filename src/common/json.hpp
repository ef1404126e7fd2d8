// The repository's one JSON reader and writer primitives.
//
// Every emitter in the tree (run reports, sweep rows, service
// responses, traces, build info, snapshot stats) renders its own fixed
// layout by streaming, but shares these leaves so escaping and number
// rendering cannot drift between them:
//
//   - json_escape: `"` `\` `\n` `\t` get short escapes, every other
//     control byte becomes \u00XX, everything else passes through;
//   - write_double: `%.12g`, with non-finite values rendered as null
//     (JSON has no inf/nan literals).
//
// The parser is deliberately minimal (objects, arrays, strings, numbers,
// bools, null) but keeps NUMBER TOKENS RAW: task seeds and request ids
// are full-range 64-bit values that a double-typed parser would corrupt,
// and byte-identical resume depends on exact round-trips.  write_json
// re-emits a parsed document on one line, echoing those raw tokens.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fmm {

/// Parsed JSON value.  Numbers keep their source token; as_i64/as_u64/
/// as_double convert on demand.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  bool as_bool() const;
  std::int64_t as_i64() const;
  std::uint64_t as_u64() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;

  /// Object member lookup; nullptr when absent (throws if not an object).
  const JsonValue* find(const std::string& key) const;
  /// Object member lookup; throws CheckError when absent.
  const JsonValue& at(const std::string& key) const;
  /// All object members in source order (throws if not an object) —
  /// lets strict consumers reject unknown fields.
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

 private:
  friend class JsonParser;
  friend void write_json(std::ostream& os, const JsonValue& value);
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string scalar_;              // raw number token, or string value
  std::vector<JsonValue> items_;    // array elements
  std::vector<std::pair<std::string, JsonValue>> members_;  // object
};

/// Parses one JSON document; throws CheckError on malformed input or
/// trailing garbage.
JsonValue parse_json(std::string_view text);

/// Writes `s` JSON-escaped (without the surrounding quotes).
void json_escape(std::ostream& os, std::string_view s);

/// Writes `value` as `%.12g`, or `null` when it is not finite.
void write_double(std::ostream& os, double value);

/// Writes `value` on one line with ", " and ": " separators; numbers
/// echo their source token verbatim and strings use json_escape.
void write_json(std::ostream& os, const JsonValue& value);

}  // namespace fmm
