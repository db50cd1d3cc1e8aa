#include "spans.hpp"

#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::array<const char*, kSpanCount> kNames = {
    "driver.setup",
    "driver.audit",
    "driver.teardown",
    "sim.loop",
    "stats.dump",
    "hc3i.app_send",
    "hc3i.recv.app",
    "hc3i.recv.clc_request",
    "hc3i.recv.replica_store",
    "hc3i.recv.replica_ack",
    "hc3i.recv.clc_ack",
    "hc3i.recv.clc_commit",
    "hc3i.recv.clc_demand",
    "hc3i.recv.inter_ack",
    "hc3i.recv.rollback_alert",
    "hc3i.recv.alert_relay",
    "hc3i.recv.gc_request",
    "hc3i.recv.gc_response",
    "hc3i.recv.gc_collect",
    "hc3i.recv.gc_prune",
    "hc3i.recv.other",
    "hc3i.failure_detected",
    "baselines.app_send",
    "baselines.recv",
    "baselines.failure_detected",
    "app.deliver",
    "app.snapshot",
    "app.restore",
    "app.freeze",
};

}  // namespace

const char* span_name(Span s) { return kNames[static_cast<std::size_t>(s)]; }

std::string span_layer(Span s) {
  const std::string name = span_name(s);
  return name.substr(0, name.find('.'));
}

Span hc3i_recv_span(std::uint32_t kind) {
  if (kind < 1 || kind > 13) return Span::kHc3iRecvOther;
  return static_cast<Span>(static_cast<std::uint32_t>(Span::kHc3iRecvClcRequest) +
                           kind - 1);
}

void SpanBook::open(Span s) {
  stack_.push_back(Frame{s, now_ns(), 0});
}

void SpanBook::close() {
  const std::int64_t end = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - f.start_ns;
  SpanStat& st = stats_[static_cast<std::size_t>(f.span)];
  ++st.calls;
  st.busy_ns += dur;
  st.self_ns += dur - f.child_ns;
  st.log2_ns.add(static_cast<std::uint64_t>(dur > 0 ? dur : 0));
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

void SpanBook::merge(const SpanBook& other) {
  if (!stack_.empty() || !other.stack_.empty()) {
    throw std::logic_error("SpanBook::merge with an open span");
  }
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    SpanStat& a = stats_[i];
    const SpanStat& b = other.stats_[i];
    a.calls += b.calls;
    a.busy_ns += b.busy_ns;
    a.self_ns += b.self_ns;
    a.log2_ns.merge(b.log2_ns);
  }
}

std::string SpanBook::to_tsv() const {
  std::string out = "span\tcalls\tbusy_ns\tself_ns\tlog2_ns_buckets\n";
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    const SpanStat& st = stats_[i];
    if (st.calls == 0) continue;
    out += kNames[i];
    out += '\t' + std::to_string(st.calls) + '\t' +
           std::to_string(st.busy_ns) + '\t' + std::to_string(st.self_ns) +
           '\t';
    bool first = true;
    for (std::size_t k = 0; k < hc3i::stats::Log2Histogram::kBuckets; ++k) {
      const std::uint64_t n = st.log2_ns.bucket_count(k);
      if (n == 0) continue;
      if (!first) out += ',';
      out += std::to_string(k) + ':' + std::to_string(n);
      first = false;
    }
    out += '\n';
  }
  return out;
}

}  // namespace perfbench
