#include "red/report/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "red/common/error.h"
#include "red/core/designs.h"
#include "red/tech/calibration.h"

namespace red::report {

void JsonWriter::open(const std::string& key) {
  pad();
  if (!key.empty()) os_ << '"' << key << "\": ";
  os_ << "{\n";
  ++depth_;
  first_ = true;
}

void JsonWriter::close(bool trailing_newline) {
  os_ << '\n';
  --depth_;
  pad();
  os_ << '}';
  if (trailing_newline && depth_ == 0) os_ << '\n';
  first_ = false;
}

void JsonWriter::field(const std::string& key, double value) {
  sep();
  pad();
  os_ << '"' << key << "\": " << json_number(value);
}

void JsonWriter::field(const std::string& key, std::int64_t value) {
  sep();
  pad();
  os_ << '"' << key << "\": " << value;
}

void JsonWriter::field(const std::string& key, std::uint64_t value) {
  sep();
  pad();
  os_ << '"' << key << "\": " << value;
}

void JsonWriter::field(const std::string& key, bool value) {
  sep();
  pad();
  os_ << '"' << key << "\": " << (value ? "true" : "false");
}

void JsonWriter::field(const std::string& key, const std::string& value) {
  sep();
  pad();
  os_ << '"' << key << "\": \"" << json_escape(value) << '"';
}

void JsonWriter::object(const std::string& key) {
  sep();
  open(key);
}

void JsonWriter::array(const std::string& key) {
  sep();
  pad();
  os_ << '"' << key << "\": [\n";
  ++depth_;
  first_ = true;
}

void JsonWriter::close_array() {
  os_ << '\n';
  --depth_;
  pad();
  os_ << ']';
  first_ = false;
}

void JsonWriter::item_object() {
  sep();
  open();
}

void JsonWriter::item_number(double value) {
  sep();
  pad();
  os_ << json_number(value);
}

void JsonWriter::item_number(std::int64_t value) {
  sep();
  pad();
  os_ << value;
}

void JsonWriter::sep() {
  if (!first_) os_ << ",\n";
  first_ = false;
}

void JsonWriter::pad() {
  for (int i = 0; i < indent_ + depth_ * 2; ++i) os_ << ' ';
}

namespace {

// ---- plan serialization -----------------------------------------------------
// Writer and reader both walk the visit_fields lists (common/visit_fields.h),
// so the JSON schema, the parser, and plan::structural_key consume one field
// list per struct — a field that serializes but does not parse (or is keyed
// but not serialized) is impossible by construction.

template <typename T>
void write_json_field(JsonWriter& w, const char* name, const T& v) {
  if constexpr (std::is_same_v<T, xbar::AdcMode>) {
    w.field(name, v == xbar::AdcMode::kIdeal ? "ideal" : "clipped");
  } else if constexpr (std::is_same_v<T, std::string> || std::is_same_v<T, bool>) {
    w.field(name, v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.field(name, v);  // seeds: full 64-bit range, exact
  } else if constexpr (std::is_integral_v<T>) {
    w.field(name, std::int64_t{v});
  } else if constexpr (std::is_floating_point_v<T>) {
    w.field(name, double{v});
  } else if constexpr (std::is_same_v<T, tech::Calibration>) {
    w.object(name);
    tech::visit_calibration(v, [&w](const char* n, const auto& c) {
      if constexpr (std::is_same_v<std::decay_t<decltype(c)>, int>)
        w.field(n, std::int64_t{c});
      else
        w.field(n, double{c});
    });
    w.close(false);
  } else {
    w.object(name);
    visit_fields(v, [&w](const char* n, const auto& x, common::FieldInfo = {}) {
      write_json_field(w, n, x);
    });
    w.close(false);
  }
}

template <typename T>
void read_json_field(const JsonValue& obj, const char* name, T& v) {
  if constexpr (std::is_same_v<T, xbar::AdcMode>) {
    const std::string& mode = obj.at(name).as_string();
    if (mode == "ideal") v = xbar::AdcMode::kIdeal;
    else if (mode == "clipped") v = xbar::AdcMode::kClipped;
    else throw ConfigError("json: unknown adc mode '" + mode + "'");
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = obj.at(name).as_string();
  } else if constexpr (std::is_same_v<T, bool>) {
    v = obj.at(name).as_bool();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = obj.at(name).as_uint();
  } else if constexpr (std::is_integral_v<T>) {
    v = static_cast<T>(obj.at(name).as_int());
  } else if constexpr (std::is_floating_point_v<T>) {
    v = static_cast<T>(obj.at(name).as_double());
  } else if constexpr (std::is_same_v<T, tech::Calibration>) {
    const JsonValue& cal = obj.at(name);
    tech::visit_calibration(v, [&cal](const char* n, auto& field) {
      if constexpr (std::is_same_v<std::decay_t<decltype(field)>, int>)
        field = static_cast<int>(cal.at(n).as_int());
      else
        field = cal.at(n).as_double();
    });
  } else {
    const JsonValue& nested = obj.at(name);
    visit_fields(v, [&nested](const char* n, auto& x, common::FieldInfo = {}) {
      read_json_field(nested, n, x);
    });
  }
}

void write_spec(JsonWriter& w, const nn::DeconvLayerSpec& spec) {
  nn::visit_fields(spec, [&w](const char* n, const auto& x, common::FieldInfo = {}) {
    write_json_field(w, n, x);
  });
}

void write_config(JsonWriter& w, const arch::DesignConfig& cfg) {
  arch::visit_fields(cfg, [&w](const char* n, const auto& x, common::FieldInfo = {}) {
    write_json_field(w, n, x);
  });
}

void write_mapping(JsonWriter& w, const plan::LayerPlan& lp) {
  w.field("fold", std::int64_t{lp.fold});
  w.object("layout");
  w.field("block_rows", lp.layout.block_rows);
  w.field("block_cols", lp.layout.block_cols);
  w.field("blocks", lp.layout.blocks);
  w.close(false);
  w.array("groups");
  for (const auto& g : lp.groups) {
    w.item_object();
    w.field("a", std::int64_t{g.a});
    w.field("b", std::int64_t{g.b});
    w.array("scs");
    for (const auto& sc : g.scs) {
      w.item_object();
      w.field("i", std::int64_t{sc.i});
      w.field("j", std::int64_t{sc.j});
      w.close(false);
    }
    w.close_array();
    w.close(false);
  }
  w.close_array();
  w.array("macros");
  for (const auto& m : lp.activity.macros) {
    w.item_object();
    w.field("rows", m.rows);
    w.field("phys_cols", m.phys_cols);
    w.field("count", m.count);
    w.close(false);
  }
  w.close_array();
  w.array("tiles");
  for (const auto& t : lp.tiles) {
    w.item_object();
    w.field("row_tiles", t.row_tiles);
    w.field("col_tiles", t.col_tiles);
    w.field("subarray_rows", t.subarray_rows);
    w.field("subarray_cols", t.subarray_cols);
    w.close(false);
  }
  w.close_array();
}

// Informational summary (not parsed back; the plan recompiles from kind +
// spec + config).
void write_activity_summary(JsonWriter& w, const arch::LayerActivity& a) {
  w.field("cycles", a.cycles);
  w.field("row_drives", a.row_drives);
  w.field("conversions", a.conversions);
  w.field("cells", a.cells);
  w.field("total_rows", a.total_rows);
  w.field("out_phys_cols", a.out_phys_cols);
  w.field("dec_units", a.dec_units);
  w.field("sc_units", a.sc_units);
  w.field("groups", a.groups);
  w.field("split_macro", a.split_macro);
  w.field("sa_extra_stages", std::int64_t{a.sa_extra_stages});
  w.field("overlap_adds", a.overlap_adds);
  w.field("buffer_accesses", a.buffer_accesses);
  w.field("mac_pulses", a.mac_pulses);
}

void write_layer_plan_fields(JsonWriter& w, const plan::LayerPlan& lp, bool with_config) {
  w.field("kind", core::kind_to_name(lp.kind));
  w.field("design", lp.activity.design_name);
  w.field("fingerprint", lp.fingerprint());
  w.object("spec");
  write_spec(w, lp.spec);
  w.close(false);
  if (with_config) {
    w.object("config");
    write_config(w, lp.cfg);
    w.close(false);
  }
  w.object("mapping");
  write_mapping(w, lp);
  w.close(false);
  w.object("activity");
  write_activity_summary(w, lp.activity);
  w.close(false);
}

// ---- JSON parsing -----------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  [[nodiscard]] JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ConfigError("json: " + why + " (at offset " + std::to_string(pos_) + ")");
  }
  [[nodiscard]] char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    JsonValue v;
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth)
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
        ++depth_;
        v = s_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        v.type = JsonValue::Type::kString;
        v.text = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.type = JsonValue::Type::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.type = JsonValue::Type::kBool;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return v;  // kNull
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      if (peek() != '"') fail("expected an object key");
      std::string key = parse_string();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode (no surrogate-pair support; plan strings are ASCII).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          fail("unsupported escape");
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.text = s_.substr(start, pos_ - start);
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects currently open
};

nn::DeconvLayerSpec spec_from_json(const JsonValue& v) {
  nn::DeconvLayerSpec spec;
  nn::visit_fields(spec, [&v](const char* n, auto& x, common::FieldInfo = {}) {
    read_json_field(v, n, x);
  });
  return spec;
}

arch::DesignConfig config_from_json(const JsonValue& v) {
  arch::DesignConfig cfg;
  arch::visit_fields(cfg, [&v](const char* n, auto& x, common::FieldInfo = {}) {
    read_json_field(v, n, x);
  });
  return cfg;
}

// The fingerprint is the artifact's tamper evidence: a document without one
// is as suspect as one with a wrong one, so absence is an error too (at()
// throws ConfigError), keeping the always-verify contract of the header.
void check_fingerprint(const JsonValue& stored_in, const std::string& recompiled,
                       const std::string& what) {
  const std::string& fp = stored_in.at("fingerprint").as_string();
  if (fp != recompiled)
    throw MismatchError(what + " fingerprint mismatch: file says '" + fp +
                        "' but the recompiled plan is '" + recompiled + "'");
}

void write_report_fields(JsonWriter& w, const arch::CostReport& r) {
  w.field("design", r.design());
  w.field("cycles", r.cycles());
  w.field("latency_ns", r.total_latency().value());
  w.field("latency_pipelined_ns", r.pipelined_latency().value());
  w.field("energy_pj", r.total_energy().value());
  w.field("area_um2", r.total_area().value());
  w.field("leakage_pj", r.leakage().value());
  w.object("array");
  w.field("latency_ns", r.array_latency().value());
  w.field("energy_pj", r.array_energy().value());
  w.field("area_um2", r.array_area().value());
  w.close(false);
  w.object("periphery");
  w.field("latency_ns", r.periphery_latency().value());
  w.field("energy_pj", r.periphery_energy().value());
  w.field("area_um2", r.periphery_area().value());
  w.close(false);
  w.object("components");
  for (auto c : circuits::all_components()) {
    w.object(circuits::component_abbrev(c));
    w.field("latency_ns", r.latency(c).value());
    w.field("energy_pj", r.energy(c).value());
    w.field("area_um2", r.area(c).value());
    w.close(false);
  }
  w.close(false);
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw ConfigError("json: missing key '" + key + "'");
  return *v;
}

double JsonValue::as_double() const {
  require(Type::kNumber, "number");
  return std::strtod(text.c_str(), nullptr);
}

std::int64_t JsonValue::as_int() const {
  require(Type::kNumber, "number");
  return std::strtoll(text.c_str(), nullptr, 10);
}

std::uint64_t JsonValue::as_uint() const {
  require(Type::kNumber, "number");
  return std::strtoull(text.c_str(), nullptr, 10);
}

bool JsonValue::as_bool() const {
  require(Type::kBool, "bool");
  return boolean;
}

const std::string& JsonValue::as_string() const {
  require(Type::kString, "string");
  return text;
}

void JsonValue::require(Type t, const char* what) const {
  if (type != t) throw ConfigError(std::string("json: expected a ") + what);
}

JsonValue parse_json(const std::string& text) { return JsonParser(text).parse(); }

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += ch;
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << value;
  return os.str();
}

std::string to_json(const arch::CostReport& report, int indent) {
  JsonWriter w(indent);
  w.open();
  write_report_fields(w, report);
  w.close();
  return w.str();
}

std::string to_json(const LayerComparison& cmp, int indent) {
  JsonWriter w(indent);
  w.open();
  w.field("layer", cmp.spec.name);
  w.field("red_speedup_vs_zp", cmp.red_speedup_vs_zp());
  w.field("pf_speedup_vs_zp", cmp.pf_speedup_vs_zp());
  w.field("red_energy_saving_vs_zp", cmp.red_energy_saving_vs_zp());
  w.field("pf_energy_vs_zp", cmp.pf_energy_vs_zp());
  w.field("pf_array_energy_ratio", cmp.pf_array_energy_ratio());
  w.field("red_area_overhead_vs_zp", cmp.red_area_overhead_vs_zp());
  w.field("pf_area_overhead_vs_zp", cmp.pf_area_overhead_vs_zp());
  w.object("zero_padding");
  write_report_fields(w, cmp.zero_padding);
  w.close(false);
  w.object("padding_free");
  write_report_fields(w, cmp.padding_free);
  w.close(false);
  w.object("red");
  write_report_fields(w, cmp.red);
  w.close(false);
  w.close();
  return w.str();
}

std::string to_json(const plan::LayerPlan& lp, int indent) {
  JsonWriter w(indent);
  w.open();
  w.field("type", "red_layer_plan");
  w.field("version", std::int64_t{1});
  write_layer_plan_fields(w, lp, /*with_config=*/true);
  w.close();
  return w.str();
}

std::string to_json(const plan::StackPlan& sp, int indent) {
  JsonWriter w(indent);
  w.open();
  w.field("type", "red_stack_plan");
  w.field("version", std::int64_t{1});
  w.field("kind", core::kind_to_name(sp.kind));
  w.field("fingerprint", sp.fingerprint());
  w.object("config");
  write_config(w, sp.cfg);
  w.close(false);
  w.array("layers");
  for (const auto& lp : sp.layers) {
    w.item_object();
    // The config is shared at the top level; layers carry spec + mapping.
    write_layer_plan_fields(w, lp, /*with_config=*/false);
    w.close(false);
  }
  w.close_array();
  w.close();
  return w.str();
}

plan::LayerPlan layer_plan_from_json(const std::string& json) {
  const JsonValue root = parse_json(json);
  if (const JsonValue* type = root.find("type");
      type != nullptr && type->as_string() != "red_layer_plan")
    throw ConfigError("plan JSON: expected a red_layer_plan document, got '" +
                      type->as_string() + "'");
  const auto kind = core::kind_from_name(root.at("kind").as_string());
  const auto spec = spec_from_json(root.at("spec"));
  const auto cfg = config_from_json(root.at("config"));
  plan::LayerPlan lp = plan::plan_layer(kind, spec, cfg);
  check_fingerprint(root, lp.fingerprint(), "layer plan '" + spec.name + "'");
  return lp;
}

plan::StackPlan stack_plan_from_json(const std::string& json) {
  const JsonValue root = parse_json(json);
  if (const JsonValue* type = root.find("type");
      type != nullptr && type->as_string() != "red_stack_plan")
    throw ConfigError("plan JSON: expected a red_stack_plan document, got '" +
                      type->as_string() + "'");
  const auto kind = core::kind_from_name(root.at("kind").as_string());
  const auto cfg = config_from_json(root.at("config"));
  std::vector<nn::DeconvLayerSpec> stack;
  const JsonValue& layers = root.at("layers");
  stack.reserve(layers.items.size());
  for (const JsonValue& layer : layers.items) stack.push_back(spec_from_json(layer.at("spec")));
  plan::StackPlan sp = plan::plan_stack(kind, stack, cfg);
  for (std::size_t i = 0; i < sp.layers.size(); ++i)
    check_fingerprint(layers.items[i], sp.layers[i].fingerprint(),
                      "layer plan '" + sp.layers[i].spec.name + "'");
  check_fingerprint(root, sp.fingerprint(), "stack plan");
  return sp;
}

}  // namespace red::report
