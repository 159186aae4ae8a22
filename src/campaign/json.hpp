// Minimal JSON reading/writing shared by the campaign export surfaces
// (result_sink's summary documents, trial_record's JSONL streams).
//
// Writing is append-to-string with two invariants the byte-identity
// contract depends on: strings are escaped the same way everywhere, and
// doubles print with %.17g (shortest form that round-trips IEEE binary64).
// Reading keeps number tokens as raw text so 64-bit integers and doubles
// both extract losslessly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace netcons::campaign::json {

struct Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

struct Value {
  // Numbers are kept as the raw token so integers up to 2^64-1 and doubles
  // both parse losslessly at extraction time.
  std::variant<std::nullptr_t, bool, std::string, Object, Array> value;
  std::string number;  ///< Non-empty iff the value is a number token.

  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] const Array& as_array() const;
};

/// Deepest array/object nesting parse() accepts -- far above any document
/// netcons writes, and a bound on the parser's recursion for hostile input.
inline constexpr int kMaxDepth = 512;

/// Parse a complete JSON document. Throws std::runtime_error on malformed
/// input, trailing content, or nesting deeper than kMaxDepth. Takes a view
/// so JSONL consumers can parse line slices of a large buffer without
/// per-line copies.
[[nodiscard]] Value parse(std::string_view text);

/// Required-field lookup; throws std::runtime_error naming the key.
[[nodiscard]] const Value& field(const Object& object, const std::string& key);

/// Append `s` as a quoted, escaped JSON string.
void append_escaped(std::string& out, const std::string& s);

/// Append the shortest representation that parses back to the same double
/// (%.17g is always sufficient for IEEE binary64). Non-finite values print
/// as 0 (JSON has no inf/nan; campaigns never emit them).
void append_double(std::string& out, double value);

}  // namespace netcons::campaign::json
