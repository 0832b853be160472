#include "src/util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/util/assert.h"

namespace flashsim {

int64_t JsonValue::AsInt() const {
  FLASHSIM_CHECK(type_ == Type::kInt);
  return int_;
}

double JsonValue::AsDouble() const {
  if (type_ == Type::kInt) {
    return static_cast<double>(int_);
  }
  FLASHSIM_CHECK(type_ == Type::kDouble);
  return double_;
}

const std::string& JsonValue::AsString() const {
  FLASHSIM_CHECK(type_ == Type::kString);
  return string_;
}

void JsonValue::Append(JsonValue value) {
  FLASHSIM_CHECK(type_ == Type::kArray);
  array_.push_back(std::move(value));
}

size_t JsonValue::size() const {
  if (type_ == Type::kArray) {
    return array_.size();
  }
  FLASHSIM_CHECK(type_ == Type::kObject);
  return object_.size();
}

const JsonValue& JsonValue::at(size_t index) const {
  FLASHSIM_CHECK(type_ == Type::kArray);
  FLASHSIM_CHECK(index < array_.size());
  return array_[index];
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  FLASHSIM_CHECK(type_ == Type::kObject);
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  object_.emplace_back(key, std::move(value));
}

const JsonValue* JsonValue::Get(const std::string& key) const {
  FLASHSIM_CHECK(type_ == Type::kObject);
  for (const auto& member : object_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNewlineIndent(std::string* out, int indent, int depth) {
  if (indent < 0) {
    return;
  }
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  char buf[64];
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kInt:
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(int_));
      *out += buf;
      break;
    case Type::kDouble:
      if (!std::isfinite(double_)) {
        *out += "null";  // JSON has no inf/nan
        break;
      }
      // %.17g round-trips every double; trim to the shortest exact form.
      for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, double_);
        if (std::strtod(buf, nullptr) == double_) {
          break;
        }
      }
      *out += buf;
      break;
    case Type::kString:
      AppendEscaped(string_, out);
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& value : array_) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        AppendNewlineIndent(out, indent, depth + 1);
        value.DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) {
        AppendNewlineIndent(out, indent, depth);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& member : object_) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        AppendNewlineIndent(out, indent, depth + 1);
        AppendEscaped(member.first, out);
        out->push_back(':');
        if (indent >= 0) {
          out->push_back(' ');
        }
        member.second.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) {
        AppendNewlineIndent(out, indent, depth);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

// Recursive-descent parser over [pos, text.size()).
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> ParseDocument() {
    SkipSpace();
    auto value = ParseValue();
    if (!value) {
      return std::nullopt;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return std::nullopt;  // trailing garbage
    }
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
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

  bool ConsumeWord(const char* word) {
    const size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> ParseValue() {
    if (pos_ >= text_.size()) {
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        auto s = ParseString();
        if (!s) {
          return std::nullopt;
        }
        return JsonValue(*std::move(s));
      }
      case 't':
        return ConsumeWord("true") ? std::optional<JsonValue>(JsonValue(true)) : std::nullopt;
      case 'f':
        return ConsumeWord("false") ? std::optional<JsonValue>(JsonValue(false)) : std::nullopt;
      case 'n':
        return ConsumeWord("null") ? std::optional<JsonValue>(JsonValue()) : std::nullopt;
      default:
        return ParseNumber();
    }
  }

  std::optional<JsonValue> ParseNumber() {
    const size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      return std::nullopt;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    if (!is_double) {
      const long long value = std::strtoll(token.c_str(), &end, 10);
      if (end != nullptr && *end == '\0') {
        return JsonValue(static_cast<int64_t>(value));
      }
    }
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return std::nullopt;
    }
    return JsonValue(value);
  }

  std::optional<std::string> ParseString() {
    if (!Consume('"')) {
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return std::nullopt;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return std::nullopt;
          }
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end == nullptr || *end != '\0') {
            return std::nullopt;
          }
          // Only the control-character range we emit; others pass as '?'.
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> ParseArray() {
    if (!Consume('[')) {
      return std::nullopt;
    }
    JsonValue array = JsonValue::Array();
    SkipSpace();
    if (Consume(']')) {
      return array;
    }
    while (true) {
      SkipSpace();
      auto value = ParseValue();
      if (!value) {
        return std::nullopt;
      }
      array.Append(*std::move(value));
      SkipSpace();
      if (Consume(']')) {
        return array;
      }
      if (!Consume(',')) {
        return std::nullopt;
      }
    }
  }

  std::optional<JsonValue> ParseObject() {
    if (!Consume('{')) {
      return std::nullopt;
    }
    JsonValue object = JsonValue::Object();
    SkipSpace();
    if (Consume('}')) {
      return object;
    }
    while (true) {
      SkipSpace();
      auto key = ParseString();
      if (!key) {
        return std::nullopt;
      }
      SkipSpace();
      if (!Consume(':')) {
        return std::nullopt;
      }
      SkipSpace();
      auto value = ParseValue();
      if (!value) {
        return std::nullopt;
      }
      object.Set(*key, *std::move(value));
      SkipSpace();
      if (Consume('}')) {
        return object;
      }
      if (!Consume(',')) {
        return std::nullopt;
      }
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> JsonValue::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

}  // namespace flashsim
