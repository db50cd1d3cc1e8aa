#include "batch/report.hpp"

#include <algorithm>
#include <cstdio>

namespace hc3i::batch {

namespace {

/// printf into a growing string (the repo's tables are printf-formatted).
template <typename... Args>
void appendf(std::string* out, const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  *out += buf;
}

/// Escape the few characters a CheckFailure message could smuggle into a
/// JSON string.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          appendf(&out, "\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::uint64_t BatchReport::total_events() const {
  std::uint64_t n = 0;
  for (const CaseResult& c : cases) n += c.events;
  return n;
}

std::size_t BatchReport::failures() const {
  std::size_t n = 0;
  for (const CaseResult& c : cases) {
    if (!c.ok) ++n;
  }
  return n;
}

double BatchReport::runs_per_min() const {
  return wall_sec > 0 ? 60.0 * static_cast<double>(cases.size()) / wall_sec
                      : 0.0;
}

std::vector<CellResult> BatchReport::cells() const {
  std::vector<CellResult> out;
  for (const CaseResult& c : cases) {
    CellResult* cell = nullptr;
    for (CellResult& known : out) {
      if (known.total.topology == c.topology &&
          known.total.campaign == c.campaign &&
          known.total.storage == c.storage) {
        cell = &known;
        break;
      }
    }
    if (!cell) {
      cell = &out.emplace_back();
      cell->total.index = c.index;
      cell->total.topology = c.topology;
      cell->total.campaign = c.campaign;
      cell->total.storage = c.storage;
      cell->total.seed = c.seed;
    }
    CaseResult& t = cell->total;
    ++cell->runs;
    if (!c.ok) ++cell->failed;
    t.ok = cell->failed == 0;
    t.events += c.events;
    t.violations += c.violations;
    t.clcs += c.clcs;
    t.faults += c.faults;
    t.rollbacks += c.rollbacks;
    t.replayed += c.replayed;
    t.ckpt_bytes += c.ckpt_bytes;
    t.ckpt_saved += c.ckpt_saved;
    t.ckpt_stall_us += c.ckpt_stall_us;
    t.recovery_read_us += c.recovery_read_us;
    t.fanout += c.fanout;
    t.gc_saved_bytes += c.gc_saved_bytes;
    t.recoveries += c.recoveries;
    t.recovery_latency += c.recovery_latency;
    t.lost_work_s += c.lost_work_s;
    t.wall_sec += c.wall_sec;
    t.census_pairs = std::max(t.census_pairs, c.census_pairs);
    t.max_clcs = std::max(t.max_clcs, c.max_clcs);
  }
  return out;
}

std::string BatchReport::render_table() const {
  // The storage columns (and the per-cell split by storage point) appear
  // only when some case actually ran on the storage axis.
  bool any_storage = false;
  for (const CaseResult& c : cases) any_storage |= !c.storage.empty();

  std::string out;
  appendf(&out, "%-16s %-10s ", "topology", "campaign");
  if (any_storage) appendf(&out, "%-12s ", "storage");
  appendf(&out, "%5s %12s %11s %7s %7s %7s %8s %7s %7s %9s %7s %6s %8s %11s ",
          "runs", "events", "ev/s", "clcs", "faults", "rb", "rb/fault",
          "fanout", "replay", "lost_s", "lat_ms", "pairs", "max_clcs",
          "gc_saved_B");
  if (any_storage) appendf(&out, "%12s %9s ", "ckpt bytes", "stall s");
  appendf(&out, "%6s\n", "fail");
  for (const CellResult& cell : cells()) {
    const CaseResult& t = cell.total;
    appendf(&out, "%-16s %-10s ", t.topology.c_str(), t.campaign.c_str());
    if (any_storage) {
      appendf(&out, "%-12s ", t.storage.empty() ? "off" : t.storage.c_str());
    }
    appendf(&out,
            "%5zu %12llu %11.0f %7llu %7llu %7llu %8.2f %7llu %7llu %9.1f "
            "%7.1f %6zu %8llu %11llu ",
            cell.runs, static_cast<unsigned long long>(t.events),
            t.wall_sec > 0 ? static_cast<double>(t.events) / t.wall_sec : 0.0,
            static_cast<unsigned long long>(t.clcs),
            static_cast<unsigned long long>(t.faults),
            static_cast<unsigned long long>(t.rollbacks),
            t.faults > 0 ? static_cast<double>(t.rollbacks) /
                               static_cast<double>(t.faults)
                         : 0.0,
            static_cast<unsigned long long>(t.fanout),
            static_cast<unsigned long long>(t.replayed), t.lost_work_s,
            t.mean_recovery_latency_s() * 1e3, t.census_pairs,
            static_cast<unsigned long long>(t.max_clcs),
            static_cast<unsigned long long>(t.gc_saved_bytes));
    if (any_storage) {
      appendf(&out, "%12llu %9.2f ",
              static_cast<unsigned long long>(t.ckpt_bytes),
              static_cast<double>(t.ckpt_stall_us) * 1e-6);
    }
    appendf(&out, "%6zu\n", cell.failed);
  }
  std::uint64_t reused = 0, fresh = 0;
  for (const WorkerStats& w : workers) {
    reused += w.pool_reused;
    fresh += w.pool_fresh;
  }
  const double reuse_pct =
      reused + fresh > 0
          ? 100.0 * static_cast<double>(reused) /
                static_cast<double>(reused + fresh)
          : 0.0;
  appendf(&out,
          "\n%zu runs on %zu thread%s in %.2f s — %.1f runs/min, %llu "
          "events, pool reuse %.1f%%\n",
          cases.size(), threads, threads == 1 ? "" : "s", wall_sec,
          runs_per_min(), static_cast<unsigned long long>(total_events()),
          reuse_pct);
  const std::size_t failed = failures();
  if (failed > 0) {
    appendf(&out, "%zu FAILED case%s:\n", failed, failed == 1 ? "" : "s");
    for (const CaseResult& c : cases) {
      if (c.ok) continue;
      const std::string label =
          c.topology + "/" + c.campaign +
          (c.storage.empty() ? "" : "/" + c.storage);
      appendf(&out, "  %s s=%llu: %s\n", label.c_str(),
              static_cast<unsigned long long>(c.seed),
              c.error.empty()
                  ? (std::to_string(c.violations) + " consistency violations")
                        .c_str()
                  : c.error.c_str());
    }
  }
  return out;
}

std::string BatchReport::to_json() const {
  std::string out = "{\n";
  appendf(&out,
          "  \"threads\": %zu,\n  \"runs\": %zu,\n  \"failures\": %zu,\n"
          "  \"wall_sec\": %.6f,\n  \"runs_per_min\": %.2f,\n"
          "  \"total_events\": %llu,\n",
          threads, cases.size(), failures(), wall_sec, runs_per_min(),
          static_cast<unsigned long long>(total_events()));
  out += "  \"workers\": [\n";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerStats& w = workers[i];
    appendf(&out,
            "    {\"runs\": %zu, \"wall_sec\": %.6f, \"pool_reused\": %llu, "
            "\"pool_fresh\": %llu}%s\n",
            w.runs, w.wall_sec, static_cast<unsigned long long>(w.pool_reused),
            static_cast<unsigned long long>(w.pool_fresh),
            i + 1 < workers.size() ? "," : "");
  }
  out += "  ],\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    // Storage fields only for cases on the storage axis, so sweeps without
    // it emit the pre-axis JSON byte-for-byte.
    std::string storage_fields;
    if (!c.storage.empty()) {
      appendf(&storage_fields,
              "\"storage\": \"%s\", \"ckpt_bytes\": %llu, "
              "\"ckpt_saved\": %llu, \"ckpt_stall_us\": %llu, "
              "\"recovery_read_us\": %llu, \"lost_work_s\": %.3f, ",
              json_escape(c.storage).c_str(),
              static_cast<unsigned long long>(c.ckpt_bytes),
              static_cast<unsigned long long>(c.ckpt_saved),
              static_cast<unsigned long long>(c.ckpt_stall_us),
              static_cast<unsigned long long>(c.recovery_read_us),
              c.lost_work_s);
    }
    appendf(&out,
            "    {\"topology\": \"%s\", \"campaign\": \"%s\", %s\"seed\": "
            "%llu, "
            "\"ok\": %s, \"events\": %llu, \"violations\": %llu, "
            "\"clcs\": %llu, \"faults\": %llu, \"rollbacks\": %llu, "
            "\"replayed\": %llu, \"wall_sec\": %.6f%s%s%s}%s\n",
            json_escape(c.topology).c_str(), json_escape(c.campaign).c_str(),
            storage_fields.c_str(),
            static_cast<unsigned long long>(c.seed), c.ok ? "true" : "false",
            static_cast<unsigned long long>(c.events),
            static_cast<unsigned long long>(c.violations),
            static_cast<unsigned long long>(c.clcs),
            static_cast<unsigned long long>(c.faults),
            static_cast<unsigned long long>(c.rollbacks),
            static_cast<unsigned long long>(c.replayed), c.wall_sec,
            c.error.empty() ? "" : ", \"error\": \"",
            c.error.empty() ? "" : json_escape(c.error).c_str(),
            c.error.empty() ? "" : "\"", i + 1 < cases.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace hc3i::batch
