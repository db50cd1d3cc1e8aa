#pragma once

// Named metric registry.
//
// Protocol components increment named counters ("clc.forced.c0",
// "msg.inter", "rollback.clusters", ...) without knowing who will read
// them; benches and tests read them by name after the run.  One registry per
// simulation run — never global, so parallel parameter sweeps don't share
// state.
//
// Writers resolve a name ONCE into a handle (`Counter&` / `Summary&`) and
// bump through it; the per-call cost is then a single add, not a string
// construction plus a tree walk.  Values live in std::map nodes, which never
// move: a handle stays valid as the registry grows and across a move of the
// whole registry into another object.  Iteration is already in name order,
// so dumps need no sort.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stats/accumulators.hpp"

namespace hc3i::stats {

/// A single named counter; obtained from Registry::counter() and valid for
/// the registry's lifetime.
class Counter {
 public:
  /// Add `delta` (monotonic counters).
  void inc(std::uint64_t delta = 1) { v_ += delta; }
  /// Set an absolute value (gauges, e.g. high-water marks).
  void set(std::uint64_t value) { v_ = value; }
  /// Raise to `value` if below it (high-water-mark update).
  void raise(std::uint64_t value) {
    if (value > v_) v_ = value;
  }
  /// Current value.
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_{0};
};

/// Per-run metric registry: monotonically increasing counters plus
/// observation summaries.
class Registry {
 public:
  /// Handle to a named counter (created at zero on first resolution).  The
  /// reference stays valid for the registry's lifetime.
  Counter& counter(std::string_view name) { return slot(counters_, name); }

  /// Handle to a named summary (created empty on first resolution).  The
  /// reference stays valid for the registry's lifetime.
  Summary& summary_handle(std::string_view name) {
    return slot(summaries_, name);
  }

  /// Set a counter to an absolute value (end-of-run gauges).
  void set(std::string_view name, std::uint64_t value) {
    counter(name).set(value);
  }

  /// Current value of a counter (0 if never touched).
  std::uint64_t get(std::string_view name) const;

  /// Read a named summary.  The returned reference is the live slot: a
  /// later add() through a handle of the same name updates what it sees
  /// (reading an untouched name creates an empty summary — count() stays 0
  /// until someone observes into it).
  const Summary& summary(std::string_view name) const {
    return slot(summaries_, name);
  }

  /// Read a named summary without creating it: null if never touched.
  const Summary* find_summary(std::string_view name) const;

  /// All counter names in lexicographic order (for dumps).
  std::vector<std::string> counter_names() const;

  /// Render every counter as "name = value" lines (debug output).
  std::string dump() const;

 private:
  template <typename T>
  using NameMap = std::map<std::string, T, std::less<>>;

  /// The value stored under `name`, created value-initialised if absent.
  template <typename T>
  static T& slot(NameMap<T>& map, std::string_view name) {
    auto it = map.lower_bound(name);
    if (it == map.end() || it->first != name) {
      it = map.emplace_hint(it, std::string(name), T{});
    }
    return it->second;
  }

  NameMap<Counter> counters_;
  // Summaries are created (not copied) by const reads so the reference a
  // reader holds is the same slot a later observation writes — the registry
  // is logically unchanged by the read.
  mutable NameMap<Summary> summaries_;
};

/// Resolve-once helper for hot-path handles: `slot` caches the resolved
/// pointer; `make_name` (anything convertible to string_view) is only
/// invoked on first touch, so computed names cost nothing once cached and
/// the metric still only exists once actually bumped.  All lazily-resolved
/// call sites funnel through here — one place to change the idiom.
template <typename MakeName>
Counter& lazy_counter(Registry& reg, Counter*& slot, MakeName&& make_name) {
  if (!slot) slot = &reg.counter(make_name());
  return *slot;
}

/// Summary flavour of lazy_counter().
template <typename MakeName>
Summary& lazy_summary(Registry& reg, Summary*& slot, MakeName&& make_name) {
  if (!slot) slot = &reg.summary_handle(make_name());
  return *slot;
}

}  // namespace hc3i::stats
