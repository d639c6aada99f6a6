#pragma once
// Minimal recursive-descent JSON reader for the repo's own reports.
//
// tlb_report compares BENCH_perf.json entries label-over-label, and the
// deterministic counters must compare *bit-identically* — so numbers keep
// their raw source text (`raw`) alongside the parsed double, and counter
// equality is raw-text equality, immune to any double round-trip. Objects
// preserve key order (the reports are emitted by util::Json, which is
// ordered), duplicate keys keep the last value on lookup.
//
// Scope: exactly RFC 8259 minus \u surrogate pairs (the reports are ASCII);
// anything outside that throws util::JsonParseError with a byte offset.
// This is a reader for trusted, self-emitted files — not a general parser.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tlb::util {

/// Parse failure: `what()` carries a message with the byte offset.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, std::size_t offset)
      : std::runtime_error(message + " at byte " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// One parsed JSON value. A small tagged tree; `raw` is the exact source
/// text of a number (the bit-identity comparison key).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string raw;     ///< numbers only: exact source text
  std::string string;  ///< strings only: unescaped content
  std::vector<JsonValue> items;                              ///< arrays
  std::vector<std::pair<std::string, JsonValue>> members;    ///< objects

  bool is_null() const noexcept { return kind == Kind::kNull; }
  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }
  bool is_string() const noexcept { return kind == Kind::kString; }
  bool is_bool() const noexcept { return kind == Kind::kBool; }

  /// Object lookup: pointer to the value for `key`, nullptr when absent
  /// (or when this is not an object). Last duplicate wins.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// find() that throws std::out_of_range naming the key when absent.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
};

/// Parse one complete JSON document; trailing non-whitespace throws.
[[nodiscard]] JsonValue parse_json(const std::string& text);

}  // namespace tlb::util
