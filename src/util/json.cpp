#include "tlb/util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace tlb::util {

Json& Json::add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, quote(value));
  return *this;
}

Json& Json::add(const std::string& key, const char* value) {
  return add(key, std::string(value));
}

Json& Json::add(const std::string& key, double value) {
  fields_.emplace_back(key, number(value));
  return *this;
}

Json& Json::add(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Json& Json::add(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Json& Json::add(const std::string& key, int value) {
  return add(key, static_cast<std::int64_t>(value));
}

Json& Json::add(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

Json& Json::add_raw(const std::string& key, const std::string& raw_json) {
  fields_.emplace_back(key, raw_json);
  return *this;
}

std::string Json::number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string Json::array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ",";
    out += number(xs[i]);
  }
  return out + "]";
}

std::string Json::quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Json::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ",";
    out += quote(fields_[i].first) + ":" + fields_[i].second;
  }
  return out + "}";
}

}  // namespace tlb::util
