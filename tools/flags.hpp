// Minimal command-line flag parsing for the CLI tools.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace treecache::tools {

/// Parses "--key value" pairs after the subcommand; bare "--key" sets "1".
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      TC_CHECK(key.rfind("--", 0) == 0, "expected --flag, got " + key);
      key = key.substr(2);
      std::string value = "1";
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      values_.insert_or_assign(std::move(key), std::move(value));
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// The value of --key as a whole unsigned integer (see util/parse.hpp),
  /// or `fallback` when the flag is absent. A value above `max` is refused
  /// too, so a caller that narrows it never wraps it.
  [[nodiscard]] std::uint64_t get_u64(
      const std::string& key, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const auto value = parse_u64(it->second);
    if (!value) {
      throw CheckFailure("--" + key + " " + it->second +
                         " is not an unsigned integer");
    }
    if (*value > max) {
      throw CheckFailure("--" + key + " " + it->second +
                         " is out of range (at most " + std::to_string(max) +
                         ")");
    }
    return *value;
  }

  /// The value of --key as a whole finite number, or `fallback` when the
  /// flag is absent. A value outside [min, max] (both ends inclusive) is
  /// refused too; probabilities are read with [0, 1].
  [[nodiscard]] double get_double(
      const std::string& key, double fallback,
      double min = std::numeric_limits<double>::lowest(),
      double max = std::numeric_limits<double>::max()) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const auto value = parse_double(it->second);
    if (!value) {
      throw CheckFailure("--" + key + " " + it->second + " is not a number");
    }
    if (*value < min || *value > max) {
      throw CheckFailure("--" + key + " " + it->second +
                         " is out of range (" + range_text(min, max) + ")");
    }
    return *value;
  }

  /// All parsed flags, e.g. to seed a sim::Params with every --key value.
  [[nodiscard]] const std::map<std::string, std::string>& all() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace treecache::tools
