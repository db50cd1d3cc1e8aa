#include "util/flags.hpp"

#include <charconv>
#include <utility>

#include "util/quantity.hpp"

namespace hc3i {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      f.positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (arg.empty()) throw FlagError("bare '--' is not a valid flag");
    // Only --name=value and bare --name (boolean) are supported; the
    // space-separated form is ambiguous next to positional arguments.
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      f.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      f.values_[arg] = "true";
    }
  }
  return f;
}

std::string Flags::get(const std::string& name, const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& text = it->second;
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    throw FlagError("flag --" + name + " is not a whole number: " + text);
  }
  return v;
}

std::uint32_t Flags::get_count(const std::string& name, std::uint32_t def,
                               std::uint32_t max) const {
  const std::int64_t v = get_int(name, def);
  if (v < 1 || v > max) {
    throw FlagError("flag --" + name + " wants a count from 1 to " +
                    std::to_string(max) + ", got " + get(name, ""));
  }
  return static_cast<std::uint32_t>(v);
}

double Flags::get_double(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const auto v = parse_double(it->second);
  if (!v) throw FlagError("flag --" + name + " is not a number: " +
                          it->second);
  return *v;
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    std::string tok =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(std::move(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace hc3i
