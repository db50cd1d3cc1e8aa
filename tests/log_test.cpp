// Tests for the text protocol log (the paper's §5.1 protocol trace level):
// non-allocating time formatting, the renderer's reused line buffer, the
// HC3I_OBS guard that skips argument evaluation when nobody listens, and
// per-run isolation of renderers.  The exact line of every record kind is
// pinned in obs_test (TextRenderer.*).

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/text.hpp"
#include "obs/trace.hpp"
#include "util/time.hpp"

namespace hc3i {
namespace {

TEST(TextLog, RendererWritesLinesInEmissionOrder) {
  std::ostringstream out;
  obs::TextRenderer renderer(out);
  obs::EventStream stream;
  stream.subscribe(renderer);
  HC3I_OBS(stream, obs::RecordKind::kClcRoundBegin, SimTime::zero(), 0, 0, 1);
  HC3I_OBS(stream, obs::RecordKind::kClcAck, seconds(1), 0, 1, 1);
  HC3I_OBS(stream, obs::RecordKind::kGcRoundBegin, seconds(2), 0, 0, 1);
  EXPECT_EQ(out.str(),
            "[0] C0 CLC round 1 (timer)\n"
            "[2s] GC round 1 start\n");
}

TEST(TextLog, ReusedLineBufferCarriesNoStaleBytes) {
  // A long line followed by a short one: the reused buffer must not carry
  // stale tail bytes into the shorter rendering.
  std::ostringstream out;
  obs::TextRenderer renderer(out);
  const SeqNum ddv[] = {123456789, 987654321, 555555555, 111111111};
  obs::TraceRecord commit{seconds(1), 7, 42, 0, 3, 12,
                          obs::RecordKind::kClcCommit};
  commit.ddv = ddv;
  renderer.on_record(commit);
  renderer.on_record(obs::TraceRecord{seconds(1), 2, 0, 0, 0, 0,
                                      obs::RecordKind::kGcRoundBegin});
  EXPECT_EQ(out.str(),
            "[1s] C3 commit CLC sn=42 ddv=(123456789, 987654321, 555555555, "
            "111111111)\n"
            "[1s] GC round 2 start\n");
}

TEST(TextLog, IdleStreamEvaluatesNoArguments) {
  obs::EventStream stream;
  int evaluations = 0;
  const auto count = [&evaluations]() -> std::uint64_t {
    ++evaluations;
    return 1;
  };
  HC3I_OBS(stream, obs::RecordKind::kClcRoundBegin, SimTime::zero(), 0, 0,
           count());
  EXPECT_EQ(evaluations, 0);  // the guard fails before the arguments

  std::ostringstream out;
  obs::TextRenderer renderer(out);
  stream.subscribe(renderer);
  HC3I_OBS(stream, obs::RecordKind::kClcRoundBegin, seconds(2), 0, 0,
           count());
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(out.str(), "[2s] C0 CLC round 1 (timer)\n");
}

TEST(TextLog, RunsShareNoState) {
  // Two runs' renderers, fed interleaved: each sink holds only its own
  // run's lines, so concurrent runs cannot mix or corrupt each other's log.
  std::ostringstream out_a;
  std::ostringstream out_b;
  obs::TextRenderer renderer_a(out_a);
  obs::TextRenderer renderer_b(out_b);
  obs::EventStream run_a;
  obs::EventStream run_b;
  run_a.subscribe(renderer_a);
  run_b.subscribe(renderer_b);
  HC3I_OBS(run_a, obs::RecordKind::kFailure, seconds(1), 1, 5, 0);
  HC3I_OBS(run_b, obs::RecordKind::kGcRoundBegin, seconds(1), 0, 0, 9);
  HC3I_OBS(run_a, obs::RecordKind::kRecoveryEnd, seconds(3), 1, 0, 0);
  EXPECT_EQ(out_a.str(),
            "[1s] FAILURE node 5 (cluster 1)\n"
            "[3s] RECOVERY complete (cluster 1)\n");
  EXPECT_EQ(out_b.str(), "[1s] GC round 9 start\n");
}

TEST(TextLog, PrefixesSimTimeLikeToString) {
  std::ostringstream out;
  obs::TextRenderer renderer(out);
  const SimTime t = minutes(90) + milliseconds(2500);
  renderer.on_record(
      obs::TraceRecord{t, 4, 0, 0, 0, 0, obs::RecordKind::kGcRoundBegin});
  std::string expected = "[";
  expected += to_string(t);
  expected += "] GC round 4 start\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(FormatTime, MatchesToString) {
  const SimTime cases[] = {SimTime::zero(),   nanoseconds(5),
                           microseconds(150), milliseconds(3),
                           seconds(42),       minutes(5) + seconds(30),
                           hours(2) + minutes(3) + milliseconds(4500),
                           SimTime::infinity()};
  for (const SimTime t : cases) {
    char buf[kTimeBufSize];
    const std::size_t n = format_time(t, buf, sizeof buf);
    EXPECT_EQ(std::string(buf, n), to_string(t));
  }
}

}  // namespace
}  // namespace hc3i
