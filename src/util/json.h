// Minimal JSON value: enough to emit machine-readable sweep results and
// Metrics snapshots, and to read a bench baseline back. Objects preserve
// insertion order so emitted documents are deterministic; numbers are
// stored as int64 or double and printed so they parse back bit-identically.
#ifndef FLASHSIM_SRC_UTIL_JSON_H_
#define FLASHSIM_SRC_UTIL_JSON_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace flashsim {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool value) : type_(Type::kBool), bool_(value) {}           // NOLINT
  JsonValue(int64_t value) : type_(Type::kInt), int_(value) {}          // NOLINT
  JsonValue(uint64_t value) : type_(Type::kInt), int_(static_cast<int64_t>(value)) {}  // NOLINT
  JsonValue(int value) : type_(Type::kInt), int_(value) {}              // NOLINT
  JsonValue(double value) : type_(Type::kDouble), double_(value) {}     // NOLINT
  JsonValue(std::string value) : type_(Type::kString), string_(std::move(value)) {}  // NOLINT
  JsonValue(const char* value) : type_(Type::kString), string_(value) {}  // NOLINT

  static JsonValue Array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }

  int64_t AsInt() const;
  uint64_t AsUint() const { return static_cast<uint64_t>(AsInt()); }
  double AsDouble() const;  // ints convert
  const std::string& AsString() const;

  // Array access.
  void Append(JsonValue value);
  size_t size() const;
  const JsonValue& at(size_t index) const;

  // Object access. Set overwrites an existing key in place; Get returns
  // nullptr when absent.
  void Set(const std::string& key, JsonValue value);
  const JsonValue* Get(const std::string& key) const;

  // Serializes. indent < 0 yields one line; otherwise pretty-prints with
  // the given indent width.
  std::string Dump(int indent = -1) const;

  // Parses one JSON document (surrounding whitespace allowed). Returns
  // nullopt on malformed input.
  static std::optional<JsonValue> Parse(const std::string& text);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_UTIL_JSON_H_
