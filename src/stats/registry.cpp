#include "stats/registry.hpp"

#include <sstream>

namespace hc3i::stats {

std::uint64_t Registry::get(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

const Summary* Registry::find_summary(std::string_view name) const {
  const auto it = summaries_.find(name);
  return it == summaries_.end() ? nullptr : &it->second;
}

std::vector<std::string> Registry::counter_names() const {
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, c] : counters_) names.push_back(name);
  return names;
}

std::string Registry::dump() const {
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << name << " = " << c.value() << '\n';
  }
  return os.str();
}

}  // namespace hc3i::stats
