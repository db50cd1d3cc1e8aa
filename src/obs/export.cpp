#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>

namespace hc3i::obs {

namespace {

/// Append printf-formatted text to `out` (records are short; 256 covers
/// every event line this exporter produces).
template <typename... Args>
void append_fmt(std::string& out, const char* fmt, Args... args) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

/// trace_event timestamps are microseconds; render the integer-ns SimTime
/// as "<us>.<frac3>" with integer math only, so output never depends on
/// floating-point formatting.
void append_ts(std::string& out, SimTime t) {
  const auto ns = static_cast<std::uint64_t>(t.ns);
  append_fmt(out, "%" PRIu64 ".%03" PRIu64, ns / 1000u, ns % 1000u);
}

void append_event_head(std::string& out, const char* name, const char* cat,
                       const char* ph, const TraceRecord& r) {
  append_fmt(out, "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",", name, cat,
             ph);
  append_fmt(out, "\"pid\":0,\"tid\":%u,\"ts\":", r.cluster);
  append_ts(out, r.t);
}

void append_record(std::string& out, const TraceRecord& r) {
  const char* name = to_label(r.kind);
  switch (r.kind) {
    case RecordKind::kClcRoundBegin:
      append_event_head(out, name, "clc", "b", r);
      append_fmt(out,
                 ",\"id\":%" PRIu64 ",\"args\":{\"forced\":%" PRIu64 "}}",
                 r.id, r.a);
      break;
    case RecordKind::kClcAck:
      append_event_head(out, name, "clc", "i", r);
      append_fmt(out,
                 ",\"s\":\"t\",\"args\":{\"round\":%" PRIu64
                 ",\"node\":%u,\"acks\":%" PRIu64 ",\"needed\":%" PRIu64 "}}",
                 r.id, r.node, r.a, r.b);
      break;
    case RecordKind::kClcCommit:
      // Closes the async span opened by the matching kClcRoundBegin; the
      // name must equal the begin event's ("clc_round"), so the commit
      // payload rides in args.
      append_event_head(out, "clc_round", "clc", "e", r);
      append_fmt(out,
                 ",\"id\":%" PRIu64 ",\"args\":{\"sn\":%" PRIu64
                 ",\"forced\":%" PRIu64 "}}",
                 r.id, r.a, r.b);
      break;
    case RecordKind::kCkptWrite:
    case RecordKind::kChainRead:
      append_event_head(out, name, "storage", "X", r);
      append_fmt(out, ",\"dur\":");
      append_ts(out, SimTime{static_cast<std::int64_t>(r.b)});
      append_fmt(out, ",\"args\":{\"node\":%u,\"bytes\":%" PRIu64 "}}", r.node,
                 r.a);
      break;
    case RecordKind::kFailure:
    case RecordKind::kFailureDetected:
    case RecordKind::kNodeRestored:
      append_event_head(out, name, "fault", "i", r);
      append_fmt(out, ",\"s\":\"t\",\"args\":{\"node\":%u}}", r.node);
      break;
    case RecordKind::kCampaignInject:
      append_event_head(out, name, "fault", "i", r);
      append_fmt(out, ",\"s\":\"t\",\"args\":{\"node\":%u,\"source\":\"%s\"}}",
                 r.node, r.label != nullptr ? r.label : "");
      break;
    case RecordKind::kRollbackBegin:
      if (r.b != 0) {
        // Async "recovery" span per cluster: a second fault into a
        // recovering cluster queues (federation invariant), so the cluster
        // id is a valid span id — spans on one track never overlap.
        append_event_head(out, "recovery", "recovery", "b", r);
        append_fmt(out, ",\"id\":%u,\"args\":{\"to_sn\":%" PRIu64 "}}",
                   r.cluster, r.a);
        break;
      }
      // Alert-triggered rollbacks ride another cluster's recovery window.
      [[fallthrough]];
    case RecordKind::kGlobalRollback:
      append_event_head(out, name, "recovery", "i", r);
      append_fmt(out,
                 ",\"s\":\"t\",\"args\":{\"to_sn\":%" PRIu64
                 ",\"inc\":%" PRIu64 "}}",
                 r.a, r.id);
      break;
    case RecordKind::kRecoveryEnd:
      append_event_head(out, "recovery", "recovery", "e", r);
      append_fmt(out, ",\"id\":%u}", r.cluster);
      break;
    case RecordKind::kGcRoundBegin:
      append_event_head(out, name, "gc", "i", r);
      append_fmt(out, ",\"s\":\"t\",\"args\":{\"round\":%" PRIu64 "}}", r.id);
      break;
    case RecordKind::kGcPrune:
      append_event_head(out, name, "gc", "i", r);
      append_fmt(out,
                 ",\"s\":\"t\",\"args\":{\"round\":%" PRIu64
                 ",\"removed\":%" PRIu64 "}}",
                 r.id, r.a - r.b);
      break;
  }
}

}  // namespace

std::string trace_json(const Recording& rec) {
  std::string out;
  out.reserve(128 + rec.recorder.records().size() * 96);
  out += "{\"traceEvents\":[";
  bool first = true;
  rec.recorder.records().for_each([&](const TraceRecord& r) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    append_record(out, r);
  });
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string metrics_tsv(const Recording& rec) {
  std::string out;
  out.reserve(64 + rec.samples.size() * 80);
  out +=
      "time_s\tclc_forced\tclc_total\tin_flight\tapp_delivered\t"
      "log_resent_bytes\tckpt_bytes_written\tckpt_stall_us\t"
      "recovery_read_us\n";
  for (const MetricsSample& s : rec.samples) {
    const auto ns = static_cast<std::uint64_t>(s.t.ns);
    append_fmt(out,
               "%" PRIu64 ".%09" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64
               "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64
               "\n",
               ns / 1'000'000'000u, ns % 1'000'000'000u, s.clc_forced,
               s.clc_total, s.in_flight, s.app_delivered, s.log_resent_bytes,
               s.ckpt_bytes_written, s.ckpt_stall_us, s.recovery_read_us);
  }
  return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = n == content.size() && std::fclose(f) == 0;
  if (n != content.size()) std::fclose(f);
  return ok;
}

}  // namespace hc3i::obs
