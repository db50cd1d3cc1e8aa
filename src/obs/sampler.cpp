#include "obs/sampler.hpp"

#include <string>

#include "util/check.hpp"

namespace hc3i::obs {

MetricsSampler::MetricsSampler(sim::Simulation& sim,
                               const stats::Registry& registry,
                               const net::Network& network, SimTime interval)
    : sim_(sim), registry_(registry), network_(network), interval_(interval) {
  HC3I_CHECK(interval.ns >= 0, "MetricsSampler: negative interval");
}

void MetricsSampler::arm(SimTime until) {
  if (interval_ == SimTime::zero()) return;
  sim_.schedule_after(interval_, [this, until] { tick(until); });
}

void MetricsSampler::tick(SimTime until) {
  MetricsSample s;
  s.t = sim_.now();
  // The agents count CLCs per cluster only; the columns are federation
  // totals.
  for (std::size_t c = 0; c < network_.topology().cluster_count(); ++c) {
    const std::string suffix = ".c" + std::to_string(c);
    s.clc_forced += registry_.get("clc.forced" + suffix);
    s.clc_total += registry_.get("clc.total" + suffix);
  }
  s.in_flight = network_.in_flight_count();
  s.app_delivered = registry_.get("app.delivered");
  s.log_resent_bytes = registry_.get("log.resent_bytes");
  s.ckpt_bytes_written = registry_.get("ckpt.bytes_written");
  s.ckpt_stall_us = registry_.get("ckpt.stall_us");
  s.recovery_read_us = registry_.get("recovery.read_us");
  samples_.push_back(s);
  if (sim_.now() + interval_ <= until) {
    sim_.schedule_after(interval_, [this, until] { tick(until); });
  }
}

}  // namespace hc3i::obs
