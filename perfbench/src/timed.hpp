#pragma once

// Timing decorators for the traced run.  Each wraps one object the library
// hands across a layer boundary and records a span around every forwarded
// call; behaviour is untouched, so the traced run's counter dump must equal
// the untraced one (the harness checks that).
//
// Calls that reach the inner object without crossing a decorator stay in
// the caller's self time: an agent's control message to itself
// (AgentBase::deliver_control_locally schedules an event that calls the
// agent's own on_message, so it lands in sim.loop self time) and the
// protocol runtimes' direct access to their agents at commit and rollback.

#include <cstdint>
#include <memory>
#include <utility>

#include "net/message.hpp"
#include "proto/agent.hpp"
#include "proto/snapshot.hpp"
#include "spans.hpp"

namespace perfbench {

/// Protocol-agent decorator: app_send, on_message (one span per hc3i
/// control kind) and on_failure_detected.
class TimedAgent final : public hc3i::proto::ProtocolAgent {
 public:
  /// `hc3i` selects the span family: the HC3I protocol's per-kind spans, or
  /// the baselines' aggregate spans.
  TimedAgent(const hc3i::proto::AgentContext& ctx,
             std::unique_ptr<hc3i::proto::ProtocolAgent> inner,
             SpanBook& book, bool hc3i)
      : ProtocolAgent(ctx), inner_(std::move(inner)), book_(&book), hc3i_(hc3i) {}

  void start() override { inner_->start(); }

  void app_send(hc3i::NodeId dst, std::uint64_t bytes,
                std::uint64_t app_seq) override {
    SpanBook::Scope s(book_, hc3i_ ? Span::kHc3iAppSend
                                   : Span::kBaselinesAppSend);
    inner_->app_send(dst, bytes, app_seq);
  }

  void on_message(const hc3i::net::Envelope& env) override {
    SpanBook::Scope s(book_, recv_span(env));
    inner_->on_message(env);
  }

  void on_failure_detected(hc3i::NodeId failed) override {
    SpanBook::Scope s(book_, hc3i_ ? Span::kHc3iFailureDetected
                                   : Span::kBaselinesFailureDetected);
    inner_->on_failure_detected(failed);
  }

 private:
  Span recv_span(const hc3i::net::Envelope& env) const {
    if (!hc3i_) return Span::kBaselinesRecv;
    if (env.cls == hc3i::net::MsgClass::kApp) return Span::kHc3iRecvApp;
    return hc3i_recv_span(env.control != nullptr ? env.control->kind : 0);
  }

  std::unique_ptr<hc3i::proto::ProtocolAgent> inner_;
  SpanBook* book_;
  bool hc3i_;
};

/// Application-handle decorator: every hook the protocol drives.
class TimedApp final : public hc3i::proto::AppHandle {
 public:
  TimedApp(hc3i::proto::AppHandle& inner, SpanBook& book)
      : inner_(inner), book_(&book) {}

  hc3i::proto::AppSnapshot snapshot() const override {
    SpanBook::Scope s(book_, Span::kAppSnapshot);
    return std::as_const(inner_).snapshot();
  }

  hc3i::proto::AppSnapshot snapshot(
      hc3i::storage::CaptureMode mode) override {
    SpanBook::Scope s(book_, Span::kAppSnapshot);
    return inner_.snapshot(mode);
  }

  void freeze() override {
    SpanBook::Scope s(book_, Span::kAppFreeze);
    inner_.freeze();
  }

  void restore(const hc3i::proto::AppSnapshot& snap) override {
    SpanBook::Scope s(book_, Span::kAppRestore);
    inner_.restore(snap);
  }

  void deliver(const hc3i::net::Envelope& env) override {
    SpanBook::Scope s(book_, Span::kAppDeliver);
    inner_.deliver(env);
  }

 private:
  hc3i::proto::AppHandle& inner_;
  SpanBook* book_;  // pointer: the const snapshot() overload records too
};

}  // namespace perfbench
