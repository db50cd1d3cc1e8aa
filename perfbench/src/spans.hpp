#pragma once

// In-memory span aggregation for the traced benchmark run.
//
// A span is one call across a layer boundary (a protocol-agent upcall, an
// application hook, the event loop, a driver phase).  Spans of one run nest
// on a single thread, so a fixed-depth stack is enough to attribute each
// span's duration to its parent: a span's self time is its duration minus
// the time its child spans cover.  Per span name the book keeps the call
// count, busy time, self time and a log2 histogram of durations; nothing is
// written until the run ends.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/accumulators.hpp"

namespace perfbench {

/// Every span the harness records.  The hc3i control kinds follow the
/// payload tags of src/hc3i/control.hpp (kKind 1..13) in order.
enum class Span : std::uint8_t {
  kDriverSetup,
  kDriverAudit,
  kDriverTeardown,
  kSimLoop,
  kStatsDump,
  kHc3iAppSend,
  kHc3iRecvApp,
  kHc3iRecvClcRequest,  // kKind 1; kinds 2..13 follow
  kHc3iRecvReplicaStore,
  kHc3iRecvReplicaAck,
  kHc3iRecvClcAck,
  kHc3iRecvClcCommit,
  kHc3iRecvClcDemand,
  kHc3iRecvInterAck,
  kHc3iRecvRollbackAlert,
  kHc3iRecvAlertRelay,
  kHc3iRecvGcRequest,
  kHc3iRecvGcResponse,
  kHc3iRecvGcCollect,
  kHc3iRecvGcPrune,  // kKind 13
  kHc3iRecvOther,    // a tag outside 1..13 (never expected)
  kHc3iFailureDetected,
  kBaselinesAppSend,
  kBaselinesRecv,
  kBaselinesFailureDetected,
  kAppDeliver,
  kAppSnapshot,
  kAppRestore,
  kAppFreeze,
  kCount,
};

constexpr std::size_t kSpanCount = static_cast<std::size_t>(Span::kCount);

/// Dotted metric stem of a span, e.g. "hc3i.recv.clc_commit".
const char* span_name(Span s);

/// Layer a span belongs to: the text before its first dot.
std::string span_layer(Span s);

/// Span for an hc3i control payload tag (1..13), or kHc3iRecvOther.
Span hc3i_recv_span(std::uint32_t kind);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Aggregated statistics of one span name.
struct SpanStat {
  std::uint64_t calls{0};
  std::int64_t busy_ns{0};
  std::int64_t self_ns{0};
  hc3i::stats::Log2Histogram log2_ns;  ///< span durations in ns
};

/// Span aggregates of one traced run (or of a sum of runs).
class SpanBook {
 public:
  SpanBook() { stack_.reserve(32); }

  /// RAII span: open on construction, closed on destruction.  A null book
  /// records nothing, so untraced code paths share the traced ones.
  class Scope {
   public:
    Scope(SpanBook* book, Span s) : book_(book) {
      if (book_ != nullptr) book_->open(s);
    }
    ~Scope() {
      if (book_ != nullptr) book_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanBook* book_;
  };

  const SpanStat& stat(Span s) const {
    return stats_[static_cast<std::size_t>(s)];
  }

  /// Add another book's aggregates into this one.
  void merge(const SpanBook& other);

  /// One line per span that was entered: name, calls, busy, self, and the
  /// non-empty log2 buckets as "bucket:count" pairs.
  std::string to_tsv() const;

 private:
  struct Frame {
    Span span;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  void open(Span s);
  void close();

  std::array<SpanStat, kSpanCount> stats_{};
  std::vector<Frame> stack_;
};

}  // namespace perfbench
