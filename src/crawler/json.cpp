#include "crawler/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace appstore::crawlersim {

const Json* Json::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : as_object()) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* value = find(key);
  if (value == nullptr) throw std::out_of_range("Json::at: missing key " + std::string(key));
  return *value;
}

namespace {

void write_escaped(std::string& out, std::string_view text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void write_number(std::string& out, double value) {
  if (std::isnan(value) || std::isinf(value)) {
    out += "null";  // JSON has no NaN/Inf
    return;
  }
  // Integers within the exactly-representable range print without decimals
  // (byte-identical to printf "%.0f", including "-0" for negative zero);
  // everything else prints like "%.17g", so doubles round-trip exactly.
  char buffer[32];
  std::to_chars_result written;
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    if (value == 0.0 && std::signbit(value)) {
      out += "-0";
      return;
    }
    written = std::to_chars(buffer, buffer + sizeof buffer, static_cast<std::int64_t>(value));
  } else {
    written = std::to_chars(buffer, buffer + sizeof buffer, value,
                            std::chars_format::general, 17);
  }
  out.append(buffer, written.ptr);
}

}  // namespace

void Json::write(std::string& out) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    write_number(out, as_number());
  } else if (is_string()) {
    write_escaped(out, as_string());
  } else if (is_array()) {
    out.push_back('[');
    bool first = true;
    for (const auto& element : as_array()) {
      if (!first) out.push_back(',');
      first = false;
      element.write(out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : as_object()) {
      if (!first) out.push_back(',');
      first = false;
      write_escaped(out, key);
      out.push_back(':');
      value.write(out);
    }
    out.push_back('}');
  }
}

std::string Json::dump() const {
  std::string out;
  write(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  [[nodiscard]] std::optional<Json> parse() {
    skip_whitespace();
    auto value = parse_value();
    if (!value.has_value()) return std::nullopt;
    skip_whitespace();
    if (position_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void skip_whitespace() {
    while (position_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[position_]))) {
      ++position_;
    }
  }

  [[nodiscard]] bool consume(char expected) {
    if (position_ < text_.size() && text_[position_] == expected) {
      ++position_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool consume_literal(std::string_view literal) {
    if (text_.substr(position_, literal.size()) == literal) {
      position_ += literal.size();
      return true;
    }
    return false;
  }

  [[nodiscard]] std::optional<Json> parse_value() {
    if (depth_ > kMaxDepth) return std::nullopt;
    skip_whitespace();
    if (position_ >= text_.size()) return std::nullopt;
    switch (text_[position_]) {
      case 'n': return consume_literal("null") ? std::optional<Json>(Json(nullptr)) : std::nullopt;
      case 't': return consume_literal("true") ? std::optional<Json>(Json(true)) : std::nullopt;
      case 'f': return consume_literal("false") ? std::optional<Json>(Json(false)) : std::nullopt;
      case '"': return parse_string();
      case '[': return parse_array();
      case '{': return parse_object();
      default: return parse_number();
    }
  }

  [[nodiscard]] std::optional<Json> parse_string() {
    std::optional<std::string> raw = parse_raw_string();
    if (!raw.has_value()) return std::nullopt;
    return Json(std::move(*raw));
  }

  [[nodiscard]] std::optional<std::string> parse_raw_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (position_ < text_.size()) {
      const char c = text_[position_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (position_ >= text_.size()) return std::nullopt;
        const char escape = text_[position_++];
        switch (escape) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (position_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = text_[position_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return std::nullopt;
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs unsupported;
            // the service emits ASCII only).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out.push_back(c);
      }
    }
    return std::nullopt;  // unterminated
  }

  [[nodiscard]] std::optional<Json> parse_number() {
    const std::size_t start = position_;
    if (position_ < text_.size() && text_[position_] == '-') ++position_;
    while (position_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[position_])) ||
            text_[position_] == '.' || text_[position_] == 'e' || text_[position_] == 'E' ||
            text_[position_] == '+' || text_[position_] == '-')) {
      ++position_;
    }
    if (position_ == start) return std::nullopt;
    double value = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + position_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) return std::nullopt;
    return Json(value);
  }

  [[nodiscard]] std::optional<Json> parse_array() {
    if (!consume('[')) return std::nullopt;
    ++depth_;
    JsonArray array;
    skip_whitespace();
    if (consume(']')) {
      --depth_;
      return Json(std::move(array));
    }
    for (;;) {
      auto element = parse_value();
      if (!element.has_value()) return std::nullopt;
      array.push_back(std::move(*element));
      skip_whitespace();
      if (consume(']')) {
        --depth_;
        return Json(std::move(array));
      }
      if (!consume(',')) return std::nullopt;
    }
  }

  [[nodiscard]] std::optional<Json> parse_object() {
    if (!consume('{')) return std::nullopt;
    ++depth_;
    JsonObject object;
    skip_whitespace();
    if (consume('}')) {
      --depth_;
      return Json(std::move(object));
    }
    for (;;) {
      skip_whitespace();
      auto key = parse_raw_string();
      if (!key.has_value()) return std::nullopt;
      skip_whitespace();
      if (!consume(':')) return std::nullopt;
      auto value = parse_value();
      if (!value.has_value()) return std::nullopt;
      object.emplace_back(std::move(*key), std::move(*value));
      skip_whitespace();
      if (consume('}')) {
        --depth_;
        return Json(std::move(object));
      }
      if (!consume(',')) return std::nullopt;
    }
  }

  static constexpr int kMaxDepth = 128;

  std::string_view text_;
  std::size_t position_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Json> parse_json(std::string_view text) { return Parser(text).parse(); }

Json json_object(JsonObject members) { return Json(std::move(members)); }

}  // namespace appstore::crawlersim
