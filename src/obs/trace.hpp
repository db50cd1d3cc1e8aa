#pragma once

// The protocol event stream: every protocol event is one TraceRecord,
// emitted through HC3I_OBS into the run's EventStream (owned by
// fed::Federation) and handed synchronously to each subscriber in
// subscription order: the Recorder below, the §5.1 text renderer
// (obs/text.hpp) and fault::CampaignEngine.
//
// Cost discipline: with no subscribers an emission site is one inline test
// and builds no record; subscribing and dispatching never allocate.  The
// Recorder appends to fixed-size chunks that never relocate, so it does
// not allocate per record either.  Events execute in time order on one
// thread, so every consumer is deterministic for a fixed seed.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "stats/accumulators.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace hc3i::obs {

/// What happened.  Payload field meaning per kind is documented inline and
/// in docs/observability.md (the export relies on it).
enum class RecordKind : std::uint8_t {
  kClcRoundBegin,    ///< id=round, a=forced(0/1)
  kClcAck,           ///< id=round, node=acking node, a=acks so far, b=needed
  kClcCommit,        ///< id=round, a=committed SN, b=forced(0/1), ddv=DDV
  kCkptWrite,        ///< node=writer, a=bytes, b=stall ns
  kChainRead,        ///< a=bytes, b=read ns (recovery chain read)
  kFailure,          ///< node=victim
  kFailureDetected,  ///< node=failed node (detector notified the cluster)
  kNodeRestored,     ///< node=restored node
  kRollbackBegin,    ///< id=new inc, a=rollback-to SN, b=fault(1)/alert(0)
  kGlobalRollback,   ///< id=new inc, a=rollback-to SN (global baseline)
  kRecoveryEnd,      ///< recovery complete for the cluster
  kGcRoundBegin,     ///< id=GC round
  kGcPrune,          ///< id=GC round, a=CLCs before, b=CLCs after
  kCampaignInject,   ///< node=victim, label=injection source
};

/// Stable lowercase event name for exports ("clc_round", "ckpt_write", ...).
const char* to_label(RecordKind k);

/// One fixed-layout trace record.  `label`, when set, always points at a
/// string literal (campaign source names), never at owned storage.  `ddv`
/// (kClcCommit only) views the committed DDV: it is valid only while the
/// record is being dispatched, so subscribers must never store it.
struct TraceRecord {
  SimTime t;
  std::uint64_t id{0};
  std::uint64_t a{0};
  std::uint64_t b{0};
  std::uint32_t cluster{0};
  std::uint32_t node{0};
  RecordKind kind{};
  const char* label{nullptr};
  std::span<const SeqNum> ddv{};
};

/// A consumer of the event stream.  Called synchronously from inside the
/// emitting protocol handler: it may schedule simulation events but must
/// not emit records itself.
class Subscriber {
 public:
  virtual void on_record(const TraceRecord& r) = 0;

 protected:
  ~Subscriber() = default;
};

/// One run's protocol event stream.  A subscriber may join at any time
/// (the campaign engine does after the agents exist) and must outlive
/// every later emission.
class EventStream {
 public:
  static constexpr std::size_t kMaxSubscribers = 4;

  void subscribe(Subscriber& s) {
    HC3I_CHECK(count_ < kMaxSubscribers, "EventStream: subscriber table full");
    subs_[count_++] = &s;
  }

  /// True when at least one subscriber listens (HC3I_OBS's guard).
  bool active() const { return count_ != 0; }

  void emit(RecordKind k, SimTime t, std::uint32_t cluster, std::uint32_t node,
            std::uint64_t id, std::uint64_t a = 0, std::uint64_t b = 0,
            const char* label = nullptr,
            std::span<const SeqNum> ddv = {}) const {
    const TraceRecord r{t, id, a, b, cluster, node, k, label, ddv};
    for (std::size_t i = 0; i < count_; ++i) subs_[i]->on_record(r);
  }

 private:
  std::array<Subscriber*, kMaxSubscribers> subs_{};
  std::size_t count_{0};
};

/// Append-only record store: fixed-capacity chunks chained in a vector, so
/// a push never moves existing records and steady-state pushes (within a
/// chunk) never allocate.
class TraceBuffer {
 public:
  static constexpr std::size_t kChunkCap = 4096;

  void push(const TraceRecord& r) {
    if (chunks_.empty() || chunks_.back()->n == kChunkCap) {
      chunks_.push_back(std::make_unique<Chunk>());
    }
    Chunk& c = *chunks_.back();
    c.recs[c.n++] = r;
    ++size_;
  }

  std::size_t size() const { return size_; }

  /// Visit every record in emission (= chronological) order.
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& c : chunks_) {
      for (std::size_t i = 0; i < c->n; ++i) f(c->recs[i]);
    }
  }

 private:
  struct Chunk {
    std::array<TraceRecord, kChunkCap> recs;
    std::size_t n{0};
  };
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_{0};
};

/// Collects trace records and, on the side, the latency distributions only
/// a record stream can see: CLC round duration (begin -> commit, per
/// cluster) and storage stall (checkpoint write + recovery chain read).
/// One Recorder per run, owned by the driver and subscribed to the run's
/// stream when RunOptions::trace is set.
class Recorder final : public Subscriber {
 public:
  void on_record(const TraceRecord& r) override {
    TraceRecord kept = r;
    kept.ddv = {};  // dispatch-scoped view: never stored
    buf_.push(kept);
    const std::uint32_t cluster = r.cluster;
    switch (r.kind) {
      case RecordKind::kClcRoundBegin:
        if (cluster >= round_begin_.size()) {
          round_begin_.resize(cluster + 1, SimTime::infinity());
        }
        round_begin_[cluster] = r.t;
        break;
      case RecordKind::kClcCommit:
        if (cluster < round_begin_.size() &&
            !round_begin_[cluster].is_infinite()) {
          round_us_.add(
              static_cast<std::uint64_t>((r.t - round_begin_[cluster]).ns) /
              1000u);
          round_begin_[cluster] = SimTime::infinity();
        }
        break;
      case RecordKind::kCkptWrite:
      case RecordKind::kChainRead:
        stall_us_.add(r.b / 1000u);
        break;
      default:
        break;
    }
  }

  const TraceBuffer& records() const { return buf_; }
  /// CLC round duration distribution, microseconds.
  const stats::Log2Histogram& round_us() const { return round_us_; }
  /// Storage stall distribution (ckpt writes + chain reads), microseconds.
  const stats::Log2Histogram& stall_us() const { return stall_us_; }

 private:
  TraceBuffer buf_;
  std::vector<SimTime> round_begin_;  ///< open round start, per cluster
  stats::Log2Histogram round_us_;
  stats::Log2Histogram stall_us_;
};

}  // namespace hc3i::obs

/// The only way to emit an event: one inline test when nobody subscribes,
/// record construction and dispatch when someone does.  `stream` is an
/// obs::EventStream lvalue; the arguments follow EventStream::emit.  The
/// trace-guarded lint rule rejects raw emit calls outside src/obs/.
#define HC3I_OBS(stream, ...)                          \
  do {                                                 \
    if ((stream).active()) (stream).emit(__VA_ARGS__); \
  } while (0)
