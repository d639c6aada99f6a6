#pragma once
// Minimal ordered JSON object builder for machine-readable reports; the
// reports are read back with util::parse_json.
//
// Keys render in insertion order and doubles use the shortest round-trip
// representation (std::to_chars), so the same data always serialises to the
// same bytes — the property tlb_sim relies on for "identical JSON
// regardless of thread count".

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tlb::util {

class Json {
 public:
  Json& add(const std::string& key, const std::string& value);
  Json& add(const std::string& key, const char* value);
  Json& add(const std::string& key, double value);
  Json& add(const std::string& key, std::int64_t value);
  Json& add(const std::string& key, std::uint64_t value);
  Json& add(const std::string& key, int value);
  Json& add(const std::string& key, bool value);
  /// Nest an already-serialised JSON value (object or array) verbatim.
  Json& add_raw(const std::string& key, const std::string& raw_json);

  /// Shortest round-trip serialisation of one double.
  static std::string number(double v);
  /// JSON array of numbers.
  static std::string array(const std::vector<double>& xs);
  /// JSON string literal with escaping.
  static std::string quote(const std::string& s);

  /// Render "{...}".
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace tlb::util
