// Tests for the observability layer: Log2Histogram quantiles, the chunked
// trace buffer, event-stream dispatch, the Recorder's derived
// distributions, the §5.1 text renderer, exporter formats, and the
// end-to-end determinism contract (two same-seed traced runs export
// byte-identical JSON/TSV; untraced runs carry no Recording at all).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "config/presets.hpp"
#include "driver/report.hpp"
#include "driver/run.hpp"
#include "fault/campaign.hpp"
#include "obs/export.hpp"
#include "obs/text.hpp"
#include "obs/trace.hpp"
#include "stats/accumulators.hpp"
#include "test_util.hpp"

namespace hc3i::testing {
namespace {

// ---------------------------------------------------------------------------
// Log2Histogram
// ---------------------------------------------------------------------------

TEST(Log2Histogram, EmptyQuantileIsZero) {
  stats::Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Log2Histogram, ZerosLandInBucketZero) {
  stats::Log2Histogram h;
  h.add(0);
  h.add(0);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(Log2Histogram, BucketBoundaries) {
  stats::Log2Histogram h;
  h.add(1);    // bucket 1: [1, 2)
  h.add(2);    // bucket 2: [2, 4)
  h.add(3);    // bucket 2
  h.add(4);    // bucket 3: [4, 8)
  h.add(255);  // bucket 8: [128, 256)
  h.add(256);  // bucket 9: [256, 512)
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(8), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_EQ(h.count(), 6u);
}

TEST(Log2Histogram, QuantilesStayInsideContainingBucket) {
  stats::Log2Histogram h;
  for (int i = 0; i < 90; ++i) h.add(10);    // bucket 4: [8, 16)
  for (int i = 0; i < 10; ++i) h.add(1000);  // bucket 10: [512, 1024)
  const double p50 = h.quantile(0.50);
  EXPECT_GE(p50, 8.0);
  EXPECT_LT(p50, 16.0);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LT(p99, 1024.0);
  EXPECT_LE(h.quantile(0.05), p50);
  EXPECT_LE(p50, p99);
}

TEST(Log2Histogram, MergeAddsBucketwise) {
  stats::Log2Histogram a, b;
  a.add(10);
  b.add(10);
  b.add(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bucket_count(4), 2u);
  EXPECT_EQ(a.bucket_count(10), 1u);
}

// ---------------------------------------------------------------------------
// TraceBuffer / Recorder
// ---------------------------------------------------------------------------

TEST(TraceBuffer, PreservesOrderAcrossChunks) {
  obs::TraceBuffer buf;
  const std::size_t n = obs::TraceBuffer::kChunkCap * 2 + 17;
  for (std::size_t i = 0; i < n; ++i) {
    obs::TraceRecord r;
    r.t = nanoseconds(static_cast<std::int64_t>(i));
    r.id = i;
    buf.push(r);
  }
  EXPECT_EQ(buf.size(), n);
  std::size_t expect = 0;
  buf.for_each([&](const obs::TraceRecord& r) {
    EXPECT_EQ(r.id, expect);
    ++expect;
  });
  EXPECT_EQ(expect, n);
}

/// Remembers the kind of every record it sees, tagged with its own id.
class KindLog final : public obs::Subscriber {
 public:
  KindLog(std::vector<int>& log, int tag) : log_(log), tag_(tag) {}
  void on_record(const obs::TraceRecord& r) override {
    log_.push_back(tag_ * 100 + static_cast<int>(r.kind));
  }

 private:
  std::vector<int>& log_;
  int tag_;
};

TEST(EventStream, IdleUntilSomeoneSubscribes) {
  obs::EventStream stream;
  EXPECT_FALSE(stream.active());
  std::vector<int> log;
  KindLog sub(log, 1);
  stream.subscribe(sub);
  EXPECT_TRUE(stream.active());
}

TEST(EventStream, DispatchesEachRecordInSubscriptionOrder) {
  obs::EventStream stream;
  std::vector<int> log;
  KindLog first(log, 1), second(log, 2);
  stream.subscribe(first);
  stream.subscribe(second);
  HC3I_OBS(stream, obs::RecordKind::kClcAck, seconds(1), 0, 0, 1);
  HC3I_OBS(stream, obs::RecordKind::kGcPrune, seconds(2), 0, 0, 1);
  const int ack = static_cast<int>(obs::RecordKind::kClcAck);
  const int prune = static_cast<int>(obs::RecordKind::kGcPrune);
  EXPECT_EQ(log, (std::vector<int>{100 + ack, 200 + ack, 100 + prune,
                                   200 + prune}));
}

TEST(EventStream, SubscriberTableIsBounded) {
  obs::EventStream stream;
  std::vector<int> log;
  KindLog sub(log, 1);
  for (std::size_t i = 0; i < obs::EventStream::kMaxSubscribers; ++i) {
    stream.subscribe(sub);
  }
  EXPECT_THROW(stream.subscribe(sub), CheckFailure);
}

/// Samples, at dispatch time, the protocol state the campaign engine relies
/// on: how many network sends a commit's record follows the round's last
/// ack by, and whether a recovering cluster is still marked pending.
class DispatchPointProbe final : public obs::Subscriber {
 public:
  explicit DispatchPointProbe(fed::Federation& fed) : fed_(fed) {}
  void on_record(const obs::TraceRecord& r) override {
    const std::uint64_t sent = fed_.network().total_sent();
    if (r.kind == obs::RecordKind::kClcAck) sent_at_ack_ = sent;
    if (r.kind == obs::RecordKind::kClcCommit) {
      sends_before_commit.push_back(sent - sent_at_ack_);
    }
    if (r.kind == obs::RecordKind::kRecoveryEnd) {
      pending_at_recovery_end.push_back(
          fed_.recovery_pending(ClusterId{r.cluster}));
    }
  }

  std::vector<std::uint64_t> sends_before_commit;
  std::vector<bool> pending_at_recovery_end;

 private:
  fed::Federation& fed_;
  std::uint64_t sent_at_ack_{0};
};

TEST(EventStream, DispatchPointsFollowTheProtocolFacts) {
  MiniWorld w(tiny_spec(2, 3), 1);
  DispatchPointProbe probe(w.fed);
  w.fed.events().subscribe(probe);  // after build_agents, like the engine
  w.send(NodeId{3}, NodeId{0});     // forces a CLC round in C0
  w.settle();
  w.fed.inject_failure(NodeId{1});
  w.settle(minutes(5));
  // kClcCommit follows the commit broadcast to the 2 other cluster nodes.
  ASSERT_FALSE(probe.sends_before_commit.empty());
  for (const std::uint64_t n : probe.sends_before_commit) EXPECT_EQ(n, 2u);
  // kRecoveryEnd follows the federation clearing the pending flag.
  EXPECT_EQ(probe.pending_at_recovery_end, std::vector<bool>{false});
}

TEST(Recorder, DerivesRoundDurationFromBeginCommit) {
  obs::Recorder rec;
  obs::EventStream stream;
  stream.subscribe(rec);
  stream.emit(obs::RecordKind::kClcRoundBegin, seconds(10), 0, 0, 1);
  stream.emit(obs::RecordKind::kClcCommit, seconds(10) + milliseconds(8), 0, 0,
              1, 2);
  EXPECT_EQ(rec.round_us().count(), 1u);
  // 8ms = 8000us lands in bucket [8192/2, 8192) = [4096, 8192).
  const double p50 = rec.round_us().quantile(0.5);
  EXPECT_GE(p50, 4096.0);
  EXPECT_LT(p50, 8192.0);
  // A commit with no matching begin (other cluster) records nothing.
  stream.emit(obs::RecordKind::kClcCommit, seconds(11), 1, 0, 1, 2);
  EXPECT_EQ(rec.round_us().count(), 1u);
}

TEST(Recorder, DerivesStallFromStorageRecords) {
  obs::Recorder rec;
  obs::EventStream stream;
  stream.subscribe(rec);
  stream.emit(obs::RecordKind::kCkptWrite, seconds(1), 0, 3, 1, 4096,
              2'000'000);  // 2ms stall
  stream.emit(obs::RecordKind::kChainRead, seconds(2), 0, 3, 1, 4096,
              500'000);  // 0.5ms read
  EXPECT_EQ(rec.stall_us().count(), 2u);
  EXPECT_EQ(rec.records().size(), 2u);
}

TEST(Recorder, NeverKeepsTheDispatchScopedDdvView) {
  obs::Recorder rec;
  obs::EventStream stream;
  stream.subscribe(rec);
  const SeqNum ddv[] = {1, 2};
  stream.emit(obs::RecordKind::kClcCommit, seconds(1), 0, 0, 1, 1, 0, nullptr,
              ddv);
  ASSERT_EQ(rec.records().size(), 1u);
  rec.records().for_each(
      [](const obs::TraceRecord& r) { EXPECT_TRUE(r.ddv.empty()); });
}

// ---------------------------------------------------------------------------
// TextRenderer (the §5.1 protocol trace level)
// ---------------------------------------------------------------------------

/// Render one record and return what the renderer wrote.
std::string render(const obs::TraceRecord& r) {
  std::ostringstream out;
  obs::TextRenderer renderer(out);
  renderer.on_record(r);
  return out.str();
}

obs::TraceRecord record(obs::RecordKind kind, SimTime t, std::uint32_t cluster,
                        std::uint32_t node, std::uint64_t id,
                        std::uint64_t a = 0, std::uint64_t b = 0) {
  return obs::TraceRecord{t, id, a, b, cluster, node, kind};
}

TEST(TextRenderer, ClcRoundBegin) {
  using obs::RecordKind;
  EXPECT_EQ(
      render(record(RecordKind::kClcRoundBegin, SimTime::zero(), 2, 8, 1)),
      "[0] C2 CLC round 1 (timer)\n");
  EXPECT_EQ(render(record(RecordKind::kClcRoundBegin, seconds(5), 0, 0, 7, 1)),
            "[5s] C0 CLC round 7 (forced)\n");
}

TEST(TextRenderer, ClcCommitWithDdv) {
  obs::TraceRecord r =
      record(obs::RecordKind::kClcCommit, milliseconds(6), 1, 4, 3, 9);
  const SeqNum ddv[] = {4, 9, 0};
  r.ddv = ddv;
  EXPECT_EQ(render(r), "[6ms] C1 commit CLC sn=9 ddv=(4, 9, 0)\n");
}

TEST(TextRenderer, Rollbacks) {
  using obs::RecordKind;
  EXPECT_EQ(
      render(record(RecordKind::kRollbackBegin, minutes(35), 1, 4, 2, 3, 1)),
      "[35m00.0s] C1 ROLLBACK to sn=3 inc=2 (fault)\n");
  EXPECT_EQ(
      render(record(RecordKind::kRollbackBegin, minutes(35), 2, 8, 1, 4, 0)),
      "[35m00.0s] C2 ROLLBACK to sn=4 inc=1 (alert)\n");
  EXPECT_EQ(
      render(record(RecordKind::kGlobalRollback, seconds(90), 0, 0, 3, 5)),
      "[1m30.0s] GLOBAL rollback to sn=5 inc=3\n");
}

TEST(TextRenderer, GarbageCollection) {
  using obs::RecordKind;
  EXPECT_EQ(render(record(RecordKind::kGcRoundBegin, hours(1), 0, 0, 2)),
            "[1h00m00.0s] GC round 2 start\n");
  EXPECT_EQ(render(record(RecordKind::kGcPrune, hours(1), 1, 4, 2, 5, 2)),
            "[1h00m00.0s] C1 GC prune: 5 -> 2\n");
}

TEST(TextRenderer, FailureAndRecovery) {
  using obs::RecordKind;
  EXPECT_EQ(render(record(RecordKind::kFailure, seconds(2), 1, 5, 0)),
            "[2s] FAILURE node 5 (cluster 1)\n");
  EXPECT_EQ(render(record(RecordKind::kRecoveryEnd, seconds(3), 1, 0, 0)),
            "[3s] RECOVERY complete (cluster 1)\n");
}

TEST(TextRenderer, KindsWithoutATextFormWriteNothing) {
  using obs::RecordKind;
  for (const RecordKind k :
       {RecordKind::kClcAck, RecordKind::kCkptWrite, RecordKind::kChainRead,
        RecordKind::kFailureDetected, RecordKind::kNodeRestored,
        RecordKind::kCampaignInject}) {
    EXPECT_EQ(render(record(k, seconds(1), 0, 0, 1, 1, 1)), "");
  }
}

TEST(RecordKinds, AllHaveLabels) {
  for (int k = 0; k <= static_cast<int>(obs::RecordKind::kCampaignInject);
       ++k) {
    const char* label = obs::to_label(static_cast<obs::RecordKind>(k));
    ASSERT_NE(label, nullptr);
    EXPECT_GT(std::string(label).size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(Export, TraceJsonShapeAndSpanPairing) {
  obs::Recording rec;
  obs::EventStream stream;
  stream.subscribe(rec.recorder);
  stream.emit(obs::RecordKind::kClcRoundBegin, seconds(1), 0, 0, 1, 1);
  stream.emit(obs::RecordKind::kClcAck, seconds(1) + milliseconds(1), 0, 2, 1,
              1, 3);
  stream.emit(obs::RecordKind::kClcCommit, seconds(2), 0, 0, 1, 5, 1);
  stream.emit(obs::RecordKind::kRollbackBegin, seconds(3), 1, 0, 1, 7, 1);
  stream.emit(obs::RecordKind::kRollbackBegin, seconds(3), 0, 0, 1, 4, 0);
  stream.emit(obs::RecordKind::kRecoveryEnd, seconds(4), 1, 0, 0);
  const std::string json = obs::trace_json(rec);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // The async span opens and closes under the same name.
  EXPECT_NE(json.find("\"name\":\"clc_round\",\"cat\":\"clc\",\"ph\":\"b\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"clc_round\",\"cat\":\"clc\",\"ph\":\"e\""),
            std::string::npos);
  EXPECT_NE(
      json.find("\"name\":\"recovery\",\"cat\":\"recovery\",\"ph\":\"b\""),
      std::string::npos);
  EXPECT_NE(
      json.find("\"name\":\"recovery\",\"cat\":\"recovery\",\"ph\":\"e\""),
      std::string::npos);
  // The alert-triggered rollback is an instant, so the span stays paired.
  EXPECT_NE(
      json.find("\"name\":\"rollback\",\"cat\":\"recovery\",\"ph\":\"i\""),
      std::string::npos);
  // Timestamps are integer-derived microseconds: 1s -> 1000000.000.
  EXPECT_NE(json.find("\"ts\":1000000.000"), std::string::npos);
}

TEST(Export, MetricsTsvHeaderAndRows) {
  obs::Recording rec;
  obs::MetricsSample s;
  s.t = seconds(30);
  s.clc_total = 4;
  s.in_flight = 2;
  rec.samples.push_back(s);
  const std::string tsv = obs::metrics_tsv(rec);
  EXPECT_EQ(tsv.rfind("time_s\t", 0), 0u);
  EXPECT_NE(tsv.find("\n30.000000000\t0\t4\t2\t"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End to end through the driver
// ---------------------------------------------------------------------------

driver::RunOptions obs_opts() {
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(2, 3);
  opts.spec.application.total_time = minutes(30);
  opts.spec.timers.gc_period = minutes(12);
  opts.scripted_failures.push_back({minutes(20), NodeId{1}});
  opts.trace = true;
  opts.metrics_interval = minutes(5);
  return opts;
}

TEST(ObsEndToEnd, OffMeansNoRecording) {
  driver::RunOptions opts = obs_opts();
  opts.trace = false;
  opts.metrics_interval = SimTime::zero();
  const auto result = driver::run_simulation(opts);
  EXPECT_EQ(result.obs, nullptr);
}

TEST(ObsEndToEnd, TracedRunRecordsProtocolActivity) {
  const auto result = driver::run_simulation(obs_opts());
  ASSERT_NE(result.obs, nullptr);
  EXPECT_GT(result.obs->recorder.records().size(), 0u);
  EXPECT_GT(result.obs->recorder.round_us().count(), 0u);
  EXPECT_FALSE(result.obs->samples.empty());
  // The failure at t=20min shows up as fault records.
  bool saw_failure = false, saw_recovery_end = false;
  result.obs->recorder.records().for_each([&](const obs::TraceRecord& r) {
    saw_failure = saw_failure || r.kind == obs::RecordKind::kFailure;
    saw_recovery_end =
        saw_recovery_end || r.kind == obs::RecordKind::kRecoveryEnd;
  });
  EXPECT_TRUE(saw_failure);
  EXPECT_TRUE(saw_recovery_end);
  // The recovery-latency histogram feeds the report's percentile line.
  EXPECT_GT(result.recovery_latency_us.count(), 0u);
  const std::string report = driver::render_report(result, 2);
  EXPECT_NE(report.find("recovery latency pcts"), std::string::npos);
}

TEST(ObsEndToEnd, SameSeedExportsAreByteIdentical) {
  const auto a = driver::run_simulation(obs_opts());
  const auto b = driver::run_simulation(obs_opts());
  ASSERT_NE(a.obs, nullptr);
  ASSERT_NE(b.obs, nullptr);
  EXPECT_EQ(obs::trace_json(*a.obs), obs::trace_json(*b.obs));
  EXPECT_EQ(obs::metrics_tsv(*a.obs), obs::metrics_tsv(*b.obs));
}

/// The reference campaign on a small federation: its commit-phase trigger
/// kills from a kClcCommit record, so the campaign engine shares the
/// stream with whatever else subscribes.
driver::RunOptions phase_trigger_opts() {
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(2, 4);
  opts.spec.application.total_time = minutes(40);
  opts.campaign = fault::reference_scale_campaign(
      2, 4, opts.spec.application.total_time);
  return opts;
}

TEST(ObsEndToEnd, TracingDoesNotPerturbTheRun) {
  // The observability layer must be a pure observer: counters (and thus
  // goldens) are identical with and without it, also when a phase trigger
  // and the recorder and text renderer all subscribe to the stream.
  std::ostringstream text;
  driver::RunOptions phase_traced = phase_trigger_opts();
  phase_traced.trace = true;
  phase_traced.text_trace = &text;
  for (const driver::RunOptions& on : {obs_opts(), phase_traced}) {
    driver::RunOptions off = on;
    off.trace = false;
    off.text_trace = nullptr;
    off.metrics_interval = SimTime::zero();
    const auto traced = driver::run_simulation(on);
    const auto plain = driver::run_simulation(off);
    // Sampler ticks do add events to the queue, so compare counters
    // (behaviour), not the executed-event census.
    EXPECT_EQ(driver::render_counters_csv(traced),
              driver::render_counters_csv(plain));
    EXPECT_EQ(traced.end_time, plain.end_time);
  }
  // The second input really exercised a commit-phase kill.
  const auto phase = driver::run_simulation(phase_trigger_opts());
  bool phase_kill = false;
  for (const fault::Incident& inc : phase.incidents) {
    phase_kill = phase_kill || std::string(inc.source) == "phase";
  }
  EXPECT_TRUE(phase_kill);
  EXPECT_NE(text.str().find("FAILURE node 2 (cluster 0)"), std::string::npos);
}

TEST(ObsEndToEnd, NullTextSinkWritesNothing) {
  driver::RunOptions opts = phase_trigger_opts();
  ASSERT_EQ(opts.text_trace, nullptr);
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  driver::run_simulation(opts);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
}

TEST(ObsEndToEnd, TextSinkCarriesTheProtocolTrace) {
  std::ostringstream text;
  driver::RunOptions opts = phase_trigger_opts();
  opts.text_trace = &text;
  driver::run_simulation(opts);
  const std::string out = text.str();
  EXPECT_EQ(out.rfind("[0] C0 CLC round 1 (timer)\n", 0), 0u);
  EXPECT_NE(out.find(" commit CLC sn=1 ddv=("), std::string::npos);
  EXPECT_NE(out.find(" ROLLBACK to sn="), std::string::npos);
  EXPECT_NE(out.find("RECOVERY complete (cluster "), std::string::npos);
}

TEST(ObsEndToEnd, MetricsSamplesAreMonotone) {
  const auto result = driver::run_simulation(obs_opts());
  ASSERT_NE(result.obs, nullptr);
  const auto& samples = result.obs->samples;
  ASSERT_GT(samples.size(), 1u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].t, samples[i - 1].t);
    EXPECT_GE(samples[i].clc_total, samples[i - 1].clc_total);
    EXPECT_GE(samples[i].app_delivered, samples[i - 1].app_delivered);
  }
}

TEST(ObsEndToEnd, MetricsClcColumnsSumThePerClusterCounters) {
  // The agents count CLCs per cluster (clc.total.c<i>); the TSV's CLC
  // columns are the federation totals as of each sample.
  const auto result = driver::run_simulation(obs_opts());
  ASSERT_NE(result.obs, nullptr);
  ASSERT_FALSE(result.obs->samples.empty());
  std::uint64_t total = 0, forced = 0;
  for (std::uint32_t c = 0; c < 2; ++c) {
    total += result.clc_total(ClusterId{c});
    forced += result.clc_forced(ClusterId{c});
  }
  const obs::MetricsSample& last = result.obs->samples.back();
  EXPECT_GT(last.clc_total, 0u);
  EXPECT_LE(last.clc_total, total);
  EXPECT_GE(last.clc_total, last.clc_forced);
  EXPECT_LE(last.clc_forced, forced);
}

}  // namespace
}  // namespace hc3i::testing
