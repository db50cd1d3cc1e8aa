#pragma once

// The paper's §5.1 protocol trace level, rendered from the event stream:
// one time-stamped line per CLC round, commit, rollback, GC round, GC
// prune, failure and recovery.  (The lowest level, "statistical data", is
// the end-of-run report in driver/report.hpp.)  The renderer is a stream
// subscriber with its own line buffer, so runs without a text sink pay
// nothing and concurrent runs share nothing.

#include <iosfwd>
#include <string>

#include "obs/trace.hpp"

namespace hc3i::obs {

/// Writes protocol records as "[<sim time>] <event>\n" lines to `out`;
/// kinds without a text form (acks, storage stalls, injections, ...) write
/// nothing.  The line buffer is reused, so steady-state rendering does not
/// allocate.
class TextRenderer final : public Subscriber {
 public:
  explicit TextRenderer(std::ostream& out) : out_(out) {}

  void on_record(const TraceRecord& r) override;

 private:
  std::ostream& out_;
  std::string line_;
};

}  // namespace hc3i::obs
