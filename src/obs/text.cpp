#include "obs/text.hpp"

#include <charconv>
#include <ostream>
#include <string_view>

namespace hc3i::obs {

namespace {

void put(std::string& s, std::string_view v) { s += v; }

void put(std::string& s, std::uint64_t v) {
  char buf[20];
  s.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

template <typename... Parts>
void line(std::string& s, const Parts&... parts) {
  (put(s, parts), ...);
}

}  // namespace

void TextRenderer::on_record(const TraceRecord& r) {
  std::string& s = line_;
  char ts[kTimeBufSize];
  s.clear();
  line(s, "[", std::string_view(ts, format_time(r.t, ts, sizeof ts)), "] ");
  switch (r.kind) {
    case RecordKind::kClcRoundBegin:
      line(s, "C", r.cluster, " CLC round ", r.id,
           r.a != 0 ? " (forced)" : " (timer)");
      break;
    case RecordKind::kClcCommit:
      line(s, "C", r.cluster, " commit CLC sn=", r.a, " ddv=(");
      for (std::size_t i = 0; i < r.ddv.size(); ++i) {
        line(s, i != 0 ? ", " : "", r.ddv[i]);
      }
      put(s, ")");
      break;
    case RecordKind::kRollbackBegin:
      line(s, "C", r.cluster, " ROLLBACK to sn=", r.a, " inc=", r.id,
           r.b != 0 ? " (fault)" : " (alert)");
      break;
    case RecordKind::kGlobalRollback:
      line(s, "GLOBAL rollback to sn=", r.a, " inc=", r.id);
      break;
    case RecordKind::kGcRoundBegin:
      line(s, "GC round ", r.id, " start");
      break;
    case RecordKind::kGcPrune:
      line(s, "C", r.cluster, " GC prune: ", r.a, " -> ", r.b);
      break;
    case RecordKind::kFailure:
      line(s, "FAILURE node ", r.node, " (cluster ", r.cluster, ")");
      break;
    case RecordKind::kRecoveryEnd:
      line(s, "RECOVERY complete (cluster ", r.cluster, ")");
      break;
    default:
      return;  // no text form at the protocol level
  }
  put(s, "\n");
  out_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

}  // namespace hc3i::obs
