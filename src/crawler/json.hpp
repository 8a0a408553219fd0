// Minimal JSON value type with writer and recursive-descent parser.
//
// The appstore REST service speaks JSON; this covers the full JSON grammar
// (objects, arrays, strings with escapes, numbers, booleans, null) with the
// usual library restrictions: numbers are doubles, object member order is
// preserved, duplicate keys keep the last value.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace appstore::crawlersim {

class Json;

using JsonArray = std::vector<Json>;
/// Order-preserving object representation: JSON emitted by the service is
/// diffable, and tests can compare serialized forms directly.
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t u) : value_(static_cast<double>(u)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_number() const noexcept { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<JsonArray>(value_); }
  [[nodiscard]] bool is_object() const noexcept { return std::holds_alternative<JsonObject>(value_); }

  /// Typed accessors; throw std::bad_variant_access on kind mismatch.
  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] double as_number() const { return std::get<double>(value_); }
  /// The number as a T: nullopt unless this is a number that is integral
  /// and inside T's range, so no conversion rounds, wraps or overflows.
  template <std::integral T>
  [[nodiscard]] std::optional<T> as_integer() const noexcept {
    const double* number = std::get_if<double>(&value_);
    if (number == nullptr) return std::nullopt;
    const double bound = std::ldexp(1.0, std::numeric_limits<T>::digits);
    const double low = std::numeric_limits<T>::is_signed ? -bound : 0.0;
    if (!(*number >= low && *number < bound) || *number != std::floor(*number)) {
      return std::nullopt;
    }
    return static_cast<T>(*number);
  }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(value_); }
  [[nodiscard]] const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  [[nodiscard]] const JsonObject& as_object() const { return std::get<JsonObject>(value_); }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;

  /// Member access that throws std::out_of_range when absent.
  [[nodiscard]] const Json& at(std::string_view key) const;

  [[nodiscard]] std::string dump() const;

  friend bool operator==(const Json&, const Json&) = default;

 private:
  void write(std::string& out) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

/// Parses a complete JSON document; nullopt on any syntax error or trailing
/// garbage.
[[nodiscard]] std::optional<Json> parse_json(std::string_view text);

/// The writers Json::dump() uses, for bodies written straight from typed
/// values: a value written through them is byte-identical to the same value
/// dumped as a Json.
void write_json_string(std::string& out, std::string_view text);
void write_json_number(std::string& out, double value);

/// Builder helpers for terse service code.
[[nodiscard]] Json json_object(JsonObject members);

}  // namespace appstore::crawlersim
