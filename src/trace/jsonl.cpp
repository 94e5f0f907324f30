#include "trace/jsonl.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <string_view>
#include <type_traits>

namespace hrmc::trace {

void write_jsonl(std::ostream& os, const std::vector<TraceRecord>& records) {
  for (const TraceRecord& r : records) {
    os << "{\"t\":" << r.t << ",\"host\":" << r.host << ",\"kind\":\""
       << kind_name(r.kind) << "\",\"seq_begin\":" << r.seq_begin
       << ",\"seq_end\":" << r.seq_end << ",\"value\":" << r.value
       << ",\"aux\":" << r.aux << ",\"flags\":" << unsigned{r.flags}
       << "}\n";
  }
}

namespace {

constexpr std::array<std::string_view, 8> kKeys = {
    "t", "host", "kind", "seq_begin", "seq_end", "value", "aux", "flags"};

std::string_view trim(std::string_view v) {
  const std::size_t b = v.find_first_not_of(" \t\r");
  if (b == std::string_view::npos) return {};
  return v.substr(b, v.find_last_not_of(" \t\r") - b + 1);
}

/// `v` without its surrounding double quotes; false if it has none.
bool unquote(std::string_view v, std::string_view& out) {
  if (v.size() < 2 || v.front() != '"' || v.back() != '"') return false;
  out = v.substr(1, v.size() - 2);
  return true;
}

/// `text` as an integer that fits the field's own type.
template <typename T>
std::string to_int(std::string_view key, std::string_view text, T& out) {
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, out);
  const bool negative = text.size() > 1 && text[0] == '-' &&
                        text[1] >= '0' && text[1] <= '9';
  if (ec == std::errc::result_out_of_range ||
      (std::is_unsigned_v<T> && negative)) {
    return "\"" + std::string(key) + "\": value out of range";
  }
  if (ec != std::errc{} || end != last) {
    return "\"" + std::string(key) + "\": not an integer";
  }
  return "";
}

/// Parses one write_jsonl object into `r`; returns "" or what is wrong.
std::string parse_line(std::string_view s, TraceRecord& r) {
  std::array<std::string_view, kKeys.size()> raw;  // value text per key
  unsigned seen = 0;
  std::size_t i = s.find_first_not_of(" \t\r");
  if (s[i] != '{') return "expected '{'";
  for (char close = 0; close != '}';) {
    const std::size_t colon = s.find(':', i + 1);
    if (colon == std::string_view::npos) return "expected \"key\":";
    const std::string_view key = trim(s.substr(i + 1, colon - i - 1));
    std::string_view name;
    if (!unquote(key, name)) return "expected \"key\":";
    std::size_t k = 0;
    while (k < kKeys.size() && kKeys[k] != name) ++k;
    if (k == kKeys.size()) return "unknown key " + std::string(key);
    if ((seen & (1u << k)) != 0) return "repeated key " + std::string(key);
    seen |= 1u << k;
    i = s.find_first_of(",}", colon);
    if (i == std::string_view::npos) return "expected ',' or '}'";
    raw[k] = trim(s.substr(colon + 1, i - colon - 1));
    close = s[i];
  }
  if (!trim(s.substr(i + 1)).empty()) return "trailing bytes after the object";
  if (seen != (1u << kKeys.size()) - 1) {
    const std::size_t k = static_cast<std::size_t>(std::countr_one(seen));
    return "missing key \"" + std::string(kKeys[k]) + "\"";
  }

  std::string_view name;
  if (!unquote(raw[2], name)) return "\"kind\": not a string";
  // kind_name's inverse over the EventKind range ("?" names no kind).
  unsigned k = name == "?" ? 0x100 : 0;
  while (k <= 0xff && name != kind_name(static_cast<EventKind>(k))) ++k;
  if (k > 0xff) return "unknown kind " + std::string(raw[2]);
  r.kind = static_cast<EventKind>(k);

  std::string what;
  const auto field = [&](std::size_t key, auto& out) {
    if (what.empty()) what = to_int(kKeys[key], raw[key], out);
  };
  field(0, r.t);
  field(1, r.host);
  field(3, r.seq_begin);
  field(4, r.seq_end);
  field(5, r.value);
  field(6, r.aux);
  field(7, r.flags);
  return what;
}

}  // namespace

JsonlRead read_jsonl(std::istream& is) {
  JsonlRead out;
  std::string line;
  for (std::size_t n = 1; std::getline(is, line); ++n) {
    if (trim(line).empty()) continue;
    TraceRecord r;
    const std::string what = parse_line(line, r);
    if (!what.empty()) return {{}, "line " + std::to_string(n) + ": " + what};
    out.records.push_back(r);
  }
  return out;
}

}  // namespace hrmc::trace
