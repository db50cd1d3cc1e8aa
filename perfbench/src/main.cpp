// perfbench — one benchmark invocation for the HC3I federation simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --golden-dir <dir> [--spans-out <file>]
//
// --trace 0 times the workload through the library's own entry points
// (driver::run_simulation, batch::Runner::run) for --seconds and reports
// the end-to-end metrics.  --trace 1 alternates untraced runs with runs of
// the benchmark-assembled stack wrapped in timing decorators, and reports
// the per-layer metrics, the layer share table and the tracing overhead.
// Both modes run the correctness pass (counter dumps against the committed
// golden at seed 1 and against each other, the liveness bound, the
// known-failure probes).  The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit codes: 0 measured (even if a check failed; see "correct"), 2 bad
// usage or missing input.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "batch/runner.hpp"
#include "driver/run.hpp"
#include "spans.hpp"
#include "stack.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using hc3i::SimTime;

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  std::string golden_dir;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --golden-dir <dir> "
               "[--spans-out <file>]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    usage(flag + " wants a non-negative integer, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage("expected '--flag value' pairs near '" + flag + "'");
    }
    if (!kv.emplace(flag.substr(2), argv[i + 1]).second) {
      usage("flag " + flag + " given twice");
    }
  }
  Args a;
  for (const auto& [flag, value] : kv) {
    if (flag == "workload") {
      a.workload = value;
    } else if (flag == "seed") {
      a.seed = parse_uint("--seed", value);
    } else if (flag == "seconds") {
      a.seconds = static_cast<double>(parse_uint("--seconds", value));
    } else if (flag == "trace") {
      const std::uint64_t t = parse_uint("--trace", value);
      if (t > 1) usage("--trace wants 0 or 1");
      a.trace = t == 1;
    } else if (flag == "golden-dir") {
      a.golden_dir = value;
    } else if (flag == "spans-out") {
      a.spans_out = value;
    } else {
      usage("unknown flag --" + flag);
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "golden-dir"}) {
    if (kv.count(required) == 0) usage(std::string("missing --") + required);
  }
  if (a.seconds < 1) usage("--seconds must be at least 1");
  return a;
}

// ---------------------------------------------------------------------------
// Small helpers

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool within_liveness_bound(std::uint64_t rollbacks, std::uint64_t faults) {
  return static_cast<double>(rollbacks) <=
         kLivenessBound * static_cast<double>(std::max<std::uint64_t>(faults, 1));
}

/// Why a finished run failed, or "" when it passed.
std::string run_failure(const std::string& error, std::size_t violations,
                        std::uint64_t rollbacks, std::uint64_t faults) {
  if (!error.empty()) return "threw: " + error;
  if (violations > 0) {
    return std::to_string(violations) + " consistency violation(s)";
  }
  if (!within_liveness_bound(rollbacks, faults)) {
    return "liveness bound broken: " + std::to_string(rollbacks) +
           " rollbacks from " + std::to_string(faults) + " faults";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Correctness ledger

struct Verdict {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> notes;

  void mismatch(const std::string& what) {
    correct = false;
    if (notes.size() < 20) notes.push_back("MISMATCH " + what);
  }
  void run_failed(const std::string& what) {
    ++failed;
    correct = false;
    if (notes.size() < 20) notes.push_back("FAILED " + what);
  }
};

// ---------------------------------------------------------------------------
// Passes: one execution of every case of a workload

/// One untraced pass through the library's entry points.
struct Pass {
  double wall_s{0.0};
  std::uint64_t events{0};
  std::uint64_t allocs{0};
  std::vector<std::string> dumps;     ///< per case
  std::vector<std::string> failures;  ///< per case, "" = passed
  hc3i::batch::BatchReport report;    ///< sweep only
};

/// Scale workloads run their case through driver::run_simulation; the
/// sweep runs its grid through batch::Runner with `threads` workers.
Pass untraced_pass(const Workload& w, std::size_t threads) {
  Pass p;
  if (w.sweep) {
    hc3i::batch::RunnerOptions ro;
    ro.threads = threads;
    ro.keep_dumps = true;
    const hc3i::batch::Runner runner(ro);
    const std::uint64_t a0 = allocations();
    const std::int64_t t0 = now_ns();
    p.report = runner.run(w.cases);
    p.wall_s = seconds_since(t0);
    p.allocs = allocations() - a0;
    p.events = p.report.total_events();
    for (const hc3i::batch::CaseResult& cr : p.report.cases) {
      p.dumps.push_back(cr.dump);
      p.failures.push_back(
          run_failure(cr.error, cr.violations, cr.rollbacks, cr.faults));
    }
    return p;
  }
  const std::uint64_t a0 = allocations();
  const std::int64_t t0 = now_ns();
  try {
    hc3i::driver::RunOptions opts = w.cases.front().options();
    opts.validate = false;
    const hc3i::driver::RunResult r = hc3i::driver::run_simulation(opts);
    p.wall_s = seconds_since(t0);
    p.allocs = allocations() - a0;
    p.events = r.events_executed;
    p.dumps.push_back(r.registry.dump());
    p.failures.push_back(run_failure("", r.violations.size(),
                                     r.counter("rollback.count"),
                                     r.counter("fault.injected")));
  } catch (const std::exception& e) {
    p.wall_s = seconds_since(t0);
    p.dumps.emplace_back();
    p.failures.push_back(run_failure(e.what(), 0, 0, 0));
  }
  return p;
}

/// Registry- and stack-derived per-layer facts, summed over a pass.
struct LayerTotals {
  std::uint64_t events{0};
  std::uint64_t clc_forced{0};
  std::uint64_t clc_total{0};
  std::uint64_t gc_aborted{0};
  std::uint64_t gc_rounds{0};
  std::uint64_t log_resent{0};
  std::uint64_t store_max_clcs{0};  ///< max over clusters and cases
  std::uint64_t msgs_sent{0};
  std::uint64_t ctl_msgs{0};
  std::uint64_t app_msgs{0};
  std::uint64_t ckpt_written{0};
  std::uint64_t ckpt_saved{0};
  std::uint64_t stall_us{0};
  std::uint64_t faults{0};
  std::uint64_t rollbacks{0};
  double storage_bytes_ns{0.0};
  hc3i::stats::Log2Histogram recovery_us;

  void add(const StackResult& r) {
    const hc3i::stats::Registry& reg = r.registry;
    for (const std::string& name : reg.counter_names()) {
      const std::uint64_t v = reg.get(name);
      if (name.rfind("clc.forced.c", 0) == 0) clc_forced += v;
      if (name.rfind("clc.total.c", 0) == 0) clc_total += v;
      if (name.rfind("store.max_clcs.c", 0) == 0) {
        store_max_clcs = std::max(store_max_clcs, v);
      }
    }
    events += r.events;
    gc_aborted += reg.get("gc.aborted");
    gc_rounds += reg.get("gc.rounds");
    log_resent += reg.get("log.resent_msgs");
    msgs_sent += r.msgs_sent;
    ctl_msgs += reg.get("net.ctl.inter.msgs") + reg.get("net.ctl.intra.msgs");
    app_msgs += reg.get("net.app.inter.msgs") + reg.get("net.app.intra.msgs");
    ckpt_written += reg.get("ckpt.bytes_written");
    ckpt_saved += reg.get("ckpt.bytes_delta_saved");
    stall_us += reg.get("ckpt.stall_us");
    faults += r.faults;
    rollbacks += r.rollbacks;
    storage_bytes_ns += r.storage_bytes_ns;
    recovery_us.merge(r.recovery_us);
  }
};

/// One pass through the benchmark-assembled stack; `book` non-null records
/// spans (decorators, driver phases, event loop, dump).
struct HarnessPass {
  double wall_s{0.0};
  std::vector<std::string> dumps;
  std::vector<std::string> failures;
  LayerTotals layers;
};

HarnessPass harness_pass(const Workload& w, SpanBook* book) {
  HarnessPass h;
  const std::int64_t t0 = now_ns();
  for (const hc3i::batch::RunCase& rc : w.cases) {
    try {
      std::unique_ptr<Stack> stack;
      {
        SpanBook::Scope s(book, Span::kDriverSetup);
        stack = std::make_unique<Stack>(rc.options(), book);
      }
      {
        SpanBook::Scope s(book, Span::kSimLoop);
        stack->run_until(stack->end());
      }
      StackResult r;
      {
        SpanBook::Scope s(book, Span::kDriverAudit);
        r = stack->audit(book);
      }
      {
        SpanBook::Scope s(book, Span::kDriverTeardown);
        stack.reset();
      }
      h.dumps.push_back(r.dump);
      h.failures.push_back(
          run_failure("", r.violations.size(), r.rollbacks, r.faults));
      h.layers.add(r);
    } catch (const std::exception& e) {
      h.dumps.emplace_back();
      h.failures.push_back(run_failure(e.what(), 0, 0, 0));
    }
  }
  h.wall_s = seconds_since(t0);
  return h;
}

/// Count a pass's runs and compare each dump with the reference.
void check_pass(const std::vector<std::string>& dumps,
                const std::vector<std::string>& failures,
                const std::vector<std::string>& ref, const Workload& w,
                const std::string& label, Verdict& v) {
  for (std::size_t i = 0; i < dumps.size(); ++i) {
    ++v.attempted;
    const auto name = [&] { return w.cases[i].name() + " (" + label + ")"; };
    if (!failures[i].empty()) v.run_failed(name() + ": " + failures[i]);
    if (i >= ref.size() || dumps[i] != ref[i]) {
      v.mismatch(name() + ": counter dump differs from the reference run");
    }
  }
}

/// The reference pass: one untraced pass at one worker, checked against
/// the committed golden (scale workloads at seed 1) and against the
/// benchmark-assembled stack.  Returns the reference dumps.
std::vector<std::string> reference_dumps(const Workload& w, const Args& a,
                                         Verdict& v,
                                         std::vector<std::string>& log) {
  const Pass ref = untraced_pass(w, 1);
  check_pass(ref.dumps, ref.failures, ref.dumps, w, "reference", v);
  if (!w.sweep && a.seed == 1) {
    const std::string path = a.golden_dir + "/" + w.golden;
    std::string golden;
    if (!read_file(path, &golden)) {
      std::fprintf(stderr, "perfbench: cannot read golden %s\n",
                   path.c_str());
      std::exit(2);
    }
    if (ref.dumps.front() != golden) {
      v.mismatch("run_simulation dump differs from " + w.golden);
    } else {
      log.push_back("run_simulation dump == " + w.golden + " (seed 1)");
    }
  }
  if (!a.trace) {
    // The traced mode compares every decorated stack run instead.
    const HarnessPass h = harness_pass(w, nullptr);
    check_pass(h.dumps, h.failures, ref.dumps, w, "assembled stack", v);
    log.push_back("assembled-stack dumps == run_simulation dumps (" +
                  std::to_string(w.cases.size()) + " case(s))");
  }
  return ref.dumps;
}

// ---------------------------------------------------------------------------
// Known-failure probes

struct ProbeOutcome {
  const Probe* probe;
  bool failed;
  std::string detail;
};

/// Run a probe to the end of its drain, or until the liveness bound
/// breaks: the run is then a failure whatever happens later, and running
/// a livelock out costs ~20 s of host time per probe.
ProbeOutcome run_probe(const Probe& p) {
  try {
    Stack stack(p.rc.options(), nullptr);
    SimTime t = SimTime::zero();
    while (t < stack.end()) {
      t = std::min(t + hc3i::seconds(1), stack.end());
      stack.run_until(t);
      const std::uint64_t rollbacks = stack.registry().get("rollback.count");
      const std::uint64_t faults = stack.registry().get("fault.injected");
      if (!within_liveness_bound(rollbacks, faults)) {
        return {&p, true,
                "liveness bound broken by t=" + hc3i::to_string(t) + ": " +
                    std::to_string(rollbacks) + " rollbacks from " +
                    std::to_string(faults) + " faults (bound " +
                    std::to_string(static_cast<int>(kLivenessBound)) +
                    " per fault); stopped there"};
      }
    }
    const StackResult r = stack.audit(nullptr);
    const std::string why =
        run_failure("", r.violations.size(), r.rollbacks, r.faults);
    if (why.empty()) return {&p, false, "passed"};
    return {&p, true,
            why + (r.violations.empty() ? "" : ", first: " + r.violations[0])};
  } catch (const std::exception& e) {
    return {&p, true, std::string("threw: ") + e.what()};
  }
}

std::vector<ProbeOutcome> run_probes(const std::vector<Probe>& probes) {
  std::vector<ProbeOutcome> out;
  for (const Probe& p : probes) out.push_back(run_probe(p));
  return out;
}

void print_probes(const std::vector<ProbeOutcome>& outcomes) {
  std::printf("\nknown-failure probes (untimed; not counted in attempted):\n");
  for (const ProbeOutcome& o : outcomes) {
    std::printf("  %-26s %s: %s\n", o.probe->name.c_str(),
                o.failed ? "FAILED (known)" : "PASSED (known failure fixed?)",
                o.detail.c_str());
    std::printf("  %-26s known: %s\n", "", o.probe->known_failure.c_str());
  }
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_result(const Verdict& v, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += v.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(v.attempted);
  out += ", \"failed\": " + std::to_string(v.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_checks(const Verdict& v, const std::vector<std::string>& log) {
  std::printf("correctness: %s\n", v.correct ? "all checks passed"
                                               : "CHECKS FAILED");
  for (const std::string& line : log) {
    std::printf("  checked  %s\n", line.c_str());
  }
  for (const std::string& line : v.notes) {
    std::printf("  BAD      %s\n", line.c_str());
  }
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics

/// Host seconds from spec to first event for every case of `w`, summed;
/// the stacks are torn down outside the timed region.
double setup_seconds(const Workload& w) {
  double sum = 0.0;
  for (const hc3i::batch::RunCase& rc : w.cases) {
    const std::int64_t t0 = now_ns();
    const auto stack = std::make_unique<Stack>(rc.options(), nullptr);
    sum += seconds_since(t0);
  }
  return sum;
}

std::vector<Metric> run_untraced(const Workload& w, const Args& a,
                                 Verdict& v) {
  std::vector<std::string> log;
  const std::vector<std::string> ref = reference_dumps(w, a, v, log);

  // Timed passes: at least three, until --seconds have elapsed.  Set-up
  // samples (spec to first event through the assembled stack; the sweep's
  // sample sums its grid) fill about 3% of the time after each pass, so
  // they see the same stretch of host load as the passes.
  std::vector<double> wall, eps, rpm, ape, setup;
  const std::int64_t start = now_ns();
  while (wall.size() < 3 || seconds_since(start) < a.seconds) {
    const Pass p = untraced_pass(w, w.threads);
    check_pass(p.dumps, p.failures, ref, w,
               "timed, " + std::to_string(w.threads) + " worker(s)", v);
    wall.push_back(p.wall_s);
    eps.push_back(ratio(static_cast<double>(p.events), p.wall_s));
    rpm.push_back(ratio(60.0 * static_cast<double>(w.cases.size()), p.wall_s));
    ape.push_back(ratio(static_cast<double>(p.allocs),
                        static_cast<double>(p.events)));
    const std::int64_t s0 = now_ns();
    do {
      setup.push_back(setup_seconds(w));
    } while (seconds_since(s0) < 0.03 * p.wall_s);
  }
  log.push_back(std::to_string(wall.size()) + " timed pass(es) x " +
                std::to_string(w.cases.size()) +
                " case(s): every dump == reference" +
                (w.sweep ? " (1 worker vs " + std::to_string(w.threads) +
                               " workers)"
                         : ""));

  const std::vector<Metric> metrics = {
      {"wall_s", median(wall), "s"},
      {"events_per_s", median(eps), "1/s"},
      {"runs_per_min", median(rpm), "1/min"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"allocs_per_event", median(ape), "count"},
  };

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=0 cases=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, w.cases.size());
  print_checks(v, log);
  std::printf("\n%-18s %14s %14s %14s %4s  %s\n", "metric", "median", "min",
              "max", "n", "unit");
  const std::map<std::string, const std::vector<double>*> samples = {
      {"wall_s", &wall}, {"events_per_s", &eps}, {"runs_per_min", &rpm},
      {"setup_s", &setup}, {"allocs_per_event", &ape}};
  for (const Metric& m : metrics) {
    const auto it = samples.find(m.name);
    if (it == samples.end()) {
      std::printf("%-18s %14.6g %14s %14s %4d  %s\n", m.name.c_str(), m.value,
                  "", "", 1, m.unit.c_str());
      continue;
    }
    const std::vector<double>& s = *it->second;
    std::printf("%-18s %14.6g %14.6g %14.6g %4zu  %s\n", m.name.c_str(),
                m.value, *std::min_element(s.begin(), s.end()),
                *std::max_element(s.begin(), s.end()), s.size(),
                m.unit.c_str());
  }
  std::printf("%-18s %14.6g  (%llu of %llu runs; not a JSON metric: it is "
              "0 on a healthy tree, see attempted/failed)\n",
              "failed_share",
              ratio(static_cast<double>(v.failed),
                    static_cast<double>(v.attempted)),
              static_cast<unsigned long long>(v.failed),
              static_cast<unsigned long long>(v.attempted));
  return metrics;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics

std::vector<Metric> run_traced(const Workload& w, const Args& a,
                               Verdict& v) {
  std::vector<std::string> log;
  const std::vector<std::string> ref = reference_dumps(w, a, v, log);

  // Alternate untraced (library entry point, one worker) and traced
  // (decorated assembled stack) passes so drift hits both alike.
  SpanBook total;
  LayerTotals layers;
  std::vector<double> traced_wall, untraced_wall;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; traced_wall.size() < 2 ||
                          seconds_since(start) < a.seconds;
       ++i) {
    for (int half = 0; half < 2; ++half) {
      if ((half == 0) == (i % 2 == 0)) {
        const Pass p = untraced_pass(w, 1);
        check_pass(p.dumps, p.failures, ref, w, "untraced, 1 worker", v);
        untraced_wall.push_back(p.wall_s);
      } else {
        SpanBook book;
        const HarnessPass h = harness_pass(w, &book);
        check_pass(h.dumps, h.failures, ref, w, "traced", v);
        traced_wall.push_back(h.wall_s);
        total.merge(book);
        layers = h.layers;
      }
    }
  }
  log.push_back(std::to_string(traced_wall.size()) +
                " traced pass(es): every dump == untraced dump");

  hc3i::batch::BatchReport batch;
  if (w.sweep) {
    Pass p = untraced_pass(w, w.threads);
    check_pass(p.dumps, p.failures, ref, w,
               std::to_string(w.threads) + " workers", v);
    log.push_back("sweep dumps at " + std::to_string(w.threads) +
                  " workers == 1 worker");
    batch = std::move(p.report);
  }

  if (!a.spans_out.empty()) {
    std::ofstream out(a.spans_out, std::ios::binary);
    out << "# workload " << w.name << " seed " << a.seed << ", "
        << traced_wall.size() << " traced pass(es), times summed\n"
        << total.to_tsv();
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   a.spans_out.c_str());
      std::exit(2);
    }
  }

  // Per-pass figures: span totals over the number of traced passes.
  const double n = static_cast<double>(traced_wall.size());
  const auto calls = [&](Span s) {
    return static_cast<double>(total.stat(s).calls) / n;
  };
  const auto busy = [&](Span s) {
    return static_cast<double>(total.stat(s).busy_ns) * 1e-9 / n;
  };
  const auto self = [&](Span s) {
    return static_cast<double>(total.stat(s).self_ns) * 1e-9 / n;
  };

  std::vector<Metric> m;
  m.push_back({"driver.setup_s", busy(Span::kDriverSetup), "s"});
  m.push_back({"driver.audit_s", busy(Span::kDriverAudit), "s"});
  m.push_back({"driver.teardown_s", busy(Span::kDriverTeardown), "s"});
  m.push_back({"sim.events", static_cast<double>(layers.events), "count"});
  m.push_back({"sim.loop_s", busy(Span::kSimLoop), "s"});
  m.push_back({"sim.loop_self_s", self(Span::kSimLoop), "s"});
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    const auto s = static_cast<Span>(i);
    const std::string layer = span_layer(s);
    if ((layer != "hc3i" && layer != "baselines" && layer != "app") ||
        s == Span::kHc3iRecvOther) {
      continue;
    }
    m.push_back({std::string(span_name(s)) + ".calls", calls(s), "count"});
    m.push_back({std::string(span_name(s)) + ".busy_s", busy(s), "s"});
  }
  m.push_back({"hc3i.forced_clc_share",
               ratio(static_cast<double>(layers.clc_forced),
                     static_cast<double>(layers.clc_total)),
               "ratio"});
  m.push_back({"hc3i.gc_abort_ratio",
               ratio(static_cast<double>(layers.gc_aborted),
                     static_cast<double>(layers.gc_rounds)),
               "ratio"});
  m.push_back({"proto.clc_commits", static_cast<double>(layers.clc_total),
               "count"});
  m.push_back({"proto.store_max_clcs",
               static_cast<double>(layers.store_max_clcs), "count"});
  m.push_back({"proto.log_resent_msgs", static_cast<double>(layers.log_resent),
               "count"});
  m.push_back({"proto.storage_bytes_ns", layers.storage_bytes_ns, "ns"});
  m.push_back({"net.msgs_sent", static_cast<double>(layers.msgs_sent),
               "count"});
  m.push_back({"net.ctl_share",
               ratio(static_cast<double>(layers.ctl_msgs),
                     static_cast<double>(layers.ctl_msgs + layers.app_msgs)),
               "ratio"});
  m.push_back({"storage.bytes_written",
               static_cast<double>(layers.ckpt_written), "bytes"});
  m.push_back({"storage.delta_saved_ratio",
               ratio(static_cast<double>(layers.ckpt_saved),
                     static_cast<double>(layers.ckpt_saved +
                                         layers.ckpt_written)),
               "ratio"});
  m.push_back({"storage.stall_sim_us", static_cast<double>(layers.stall_us),
               "sim_us"});
  m.push_back({"fault.injected", static_cast<double>(layers.faults), "count"});
  m.push_back({"fault.rollbacks_per_fault",
               ratio(static_cast<double>(layers.rollbacks),
                     static_cast<double>(layers.faults)),
               "ratio"});
  m.push_back({"fault.recovery_p99_sim_us", layers.recovery_us.quantile(0.99),
               "sim_us"});

  double busy_share = 0.0, tail_idle = 0.0, pool_reuse = 0.0;
  if (w.sweep) {
    double case_wall = 0.0, worker_max = 0.0, reused = 0.0, fresh = 0.0;
    for (const auto& cr : batch.cases) case_wall += cr.wall_sec;
    for (const auto& ws : batch.workers) {
      worker_max = std::max(worker_max, ws.wall_sec);
      reused += static_cast<double>(ws.pool_reused);
      fresh += static_cast<double>(ws.pool_fresh);
    }
    for (const auto& ws : batch.workers) tail_idle += worker_max - ws.wall_sec;
    busy_share = ratio(case_wall, static_cast<double>(batch.threads) *
                                      batch.wall_sec);
    pool_reuse = ratio(reused, reused + fresh);
  }
  m.push_back({"batch.worker_busy_share", busy_share, "ratio"});
  m.push_back({"batch.tail_idle_s", tail_idle, "s"});
  m.push_back({"batch.pool_reuse_ratio", pool_reuse, "ratio"});
  m.push_back({"stats.dump_s", busy(Span::kStatsDump), "s"});

  const double traced = median(traced_wall);
  const double untraced = median(untraced_wall);
  m.push_back({"trace.wall_s", traced, "s"});
  m.push_back({"trace.untraced_wall_s", untraced, "s"});
  m.push_back({"trace.overhead_ratio", ratio(traced, untraced), "ratio"});

  // Layer share table: busy and self time of each layer over the traced
  // wall time.  Self times partition the spans' time; what no span covers
  // is the residual.
  const std::vector<std::string> share_layers = {"driver", "sim",  "hc3i",
                                                 "baselines", "app", "stats"};
  double wall_sum = 0.0;
  for (const double t : traced_wall) wall_sum += t;
  const double wall_per_pass = wall_sum / n;
  std::map<std::string, std::pair<double, double>> by_layer;  // busy, self
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    const auto s = static_cast<Span>(i);
    auto& [b, sf] = by_layer[span_layer(s)];
    b += busy(s);
    sf += self(s);
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=1 cases=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, w.cases.size());
  print_checks(v, log);
  std::printf("\nlayer share of traced wall time (%.6f s per pass, %zu "
              "pass(es)):\n%-10s %12s %8s %12s %8s\n",
              wall_per_pass, traced_wall.size(), "layer", "busy_s", "busy%",
              "self_s", "self%");
  double accounted = 0.0;
  for (const std::string& layer : share_layers) {
    const auto [b, sf] = by_layer[layer];
    accounted += sf;
    std::printf("%-10s %12.6f %7.2f%% %12.6f %7.2f%%\n", layer.c_str(), b,
                100 * ratio(b, wall_per_pass), sf,
                100 * ratio(sf, wall_per_pass));
    m.push_back({"share." + layer + ".busy", ratio(b, wall_per_pass),
                 "ratio"});
    m.push_back({"share." + layer + ".self", ratio(sf, wall_per_pass),
                 "ratio"});
  }
  const double residual = wall_per_pass - accounted;
  std::printf("%-10s %12s %8s %12.6f %7.2f%%  (harness time between spans)\n",
              "residual", "", "", residual,
              100 * ratio(residual, wall_per_pass));
  std::printf("accounted  %.2f%% of traced wall time\n",
              100 * ratio(accounted, wall_per_pass));
  m.push_back({"share.accounted", ratio(accounted, wall_per_pass), "ratio"});
  m.push_back({"share.residual", ratio(residual, wall_per_pass), "ratio"});

  std::printf("\ntracing overhead: traced %.6f s / untraced %.6f s = %.4f "
              "(medians of %zu and %zu passes, both 1 worker)\n",
              traced, untraced, ratio(traced, untraced), traced_wall.size(),
              untraced_wall.size());
  if (!a.spans_out.empty()) {
    std::printf("span aggregates (count, busy, self, log2 histogram): %s\n",
                a.spans_out.c_str());
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  Workload w;
  try {
    w = make_workload(a.workload, a.seed);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  Verdict v;
  std::vector<Metric> metrics =
      a.trace ? run_traced(w, a, v) : run_untraced(w, a, v);

  // After the measurement, so the probes never touch peak RSS.
  const std::vector<Probe> probes = known_failure_probes();
  const std::vector<ProbeOutcome> outcomes = run_probes(probes);
  print_probes(outcomes);
  if (a.trace) {
    double known_failures = 0;
    for (const ProbeOutcome& o : outcomes) known_failures += o.failed ? 1 : 0;
    metrics.push_back({"liveness.known_failures", known_failures, "count"});
  }
  print_result(v, metrics);
  return 0;
}
