// Minimal JSON serialization of cost reports, comparisons, and compiled
// plans (for scripting against the CLI without parsing tables, and for
// caching/diffing mapping plans as artifacts).
//
// Hand-rolled writer and parser: the grammar is tiny (objects/arrays of
// numbers and strings), so a dependency-free implementation keeps the
// project self-contained.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "red/arch/cost_report.h"
#include "red/plan/plan.h"
#include "red/report/evaluation.h"

namespace red::report {

/// Streaming writer for the repo's JSON artifacts (plans, benchmark reports,
/// optimizer checkpoints). Public API: every emitter shares one formatting
/// discipline (json_number doubles, json_escape strings) instead of
/// hand-assembling documents.
class JsonWriter {
 public:
  explicit JsonWriter(int indent) : indent_(indent) {}

  void open(const std::string& key = "");
  void close(bool trailing_newline = true);
  void field(const std::string& key, double value);
  void field(const std::string& key, std::int64_t value);
  void field(const std::string& key, std::uint64_t value);
  void field(const std::string& key, bool value);
  void field(const std::string& key, const std::string& value);
  /// Catches string literals, which would otherwise prefer the bool overload
  /// (pointer-to-bool is a standard conversion; const char* to std::string
  /// is user-defined).
  void field(const std::string& key, const char* value) { field(key, std::string(value)); }
  void object(const std::string& key);
  void array(const std::string& key);
  void close_array();
  /// Start an object element inside an open array.
  void item_object();
  /// Append a bare number element inside an open array.
  void item_number(double value);
  void item_number(std::int64_t value);

  [[nodiscard]] std::string str() const { return os_.str(); }

 private:
  void sep();
  void pad();
  std::ostringstream os_;
  int indent_;
  int depth_ = 0;
  bool first_ = true;
};

/// Parsed JSON document node (the grammar the repo's artifacts use: objects
/// and arrays of numbers, strings, bools, null). Accessors throw ConfigError
/// on shape mismatches, so loaders read like declarations.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  std::string text;  ///< number lexeme or decoded string value
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::string& as_string() const;

 private:
  void require(Type t, const char* what) const;
};

/// Deepest array/object nesting parse_json accepts. Every document this repo
/// writes nests a handful of levels; the bound keeps a hostile file from
/// overflowing the stack of the recursive-descent parser.
inline constexpr int kMaxJsonDepth = 256;

/// Parse a complete JSON document. Throws ConfigError (with the byte offset)
/// on malformed input, trailing characters, or nesting deeper than
/// kMaxJsonDepth.
[[nodiscard]] JsonValue parse_json(const std::string& text);

/// One cost report as a JSON object (per-component arrays + totals).
[[nodiscard]] std::string to_json(const arch::CostReport& report, int indent = 0);

/// A full three-design comparison as a JSON object with the headline
/// Fig. 7/8/9 quantities.
[[nodiscard]] std::string to_json(const LayerComparison& cmp, int indent = 0);

/// A compiled layer plan as a JSON object: design kind, spec, the full
/// result-relevant config (calibration and tech node included), the mapping
/// decisions (fold, mode groups, weight layout, macro shapes, tile grid), an
/// activity summary, and the structural fingerprint. Round-trips through
/// layer_plan_from_json to an equal fingerprint.
[[nodiscard]] std::string to_json(const plan::LayerPlan& lp, int indent = 0);

/// A compiled stack plan: the shared kind/config once, then one object per
/// layer (spec + mapping + activity + fingerprint). Round-trips through
/// stack_plan_from_json to an equal fingerprint.
[[nodiscard]] std::string to_json(const plan::StackPlan& sp, int indent = 0);

/// Parse a layer plan written by to_json: reads kind, spec, and config,
/// recompiles the plan through plan::plan_layer (so a parsed plan is always
/// self-consistent), and verifies the stored fingerprint against the
/// recompiled one. Throws ConfigError on malformed JSON or missing fields,
/// MismatchError when the fingerprints disagree.
[[nodiscard]] plan::LayerPlan layer_plan_from_json(const std::string& json);

/// Parse a stack plan written by to_json (same recompile-and-verify
/// contract, per layer and for the whole stack).
[[nodiscard]] plan::StackPlan stack_plan_from_json(const std::string& json);

/// Escape a string for embedding in JSON.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Format a double as a JSON token that parses back to the identical value:
/// max_digits10 significant digits for finite values (the default 6-digit
/// ostream precision silently truncates), and `null` for NaN/Inf, which have
/// no JSON representation. Shared by every JSON emitter in the repo
/// (JsonWriter and the BENCH_*.json benches).
[[nodiscard]] std::string json_number(double value);

}  // namespace red::report
