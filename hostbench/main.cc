// Host-time benchmark binary.
//
//   hostbench --workload select_1m|join_100k|update_100k --seed N
//             --seconds S --trace 0|1 [--tiny] [--wrong-answer-op K]
//             [--spans-out PATH]
//
// One process runs one workload as a single-user closed loop: set up the
// database kSetupReps times (setup_s is the median), recompute statistics,
// then issue seeded paper queries one after another for S seconds (and at
// least the exact-count window), checking every answer. With --trace 1 the
// S seconds are split between that loop and a traced one, which records a
// span around every layer call and reports per-layer self time and the
// tracing overhead. Every metric is printed as "name = value unit"; the last
// line is one JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/host_pool.h"
#include "workloads.h"

namespace hostbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  WorkloadOptions options;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--wrong-answer-op") {
      args->options.wrong_answer_op = std::strtoll(value, nullptr, 10);
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  args->options.seed = args->seed;
  return !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "select_1m") return MakeSelectWorkload(args.options);
  if (args.workload == "join_100k") return MakeJoinWorkload(args.options);
  if (args.workload == "update_100k") return MakeUpdateWorkload(args.options);
  return nullptr;
}

/// The closed loop: one op after another, in whole cycles of the op mix,
/// until `seconds` have passed and at least `min_ops` ops ran.
/// `after_op(count)` runs after each op.
std::vector<Op> RunLoop(Harness& h, Workload& w, double seconds,
                        uint64_t min_ops, uint64_t* next_id,
                        const std::function<void(size_t)>& after_op) {
  std::vector<Op> ops;
  const double start = NowSec();
  while (ops.size() < min_ops || ops.size() % w.cycle_ops() != 0 ||
         NowSec() - start < seconds) {
    w.Housekeep(h);
    Op op;
    op.id = (*next_id)++;
    const int64_t span = h.BeginOpSpan(op);
    w.RunOp(h, op);
    h.EndOpSpan(span, op);
    ops.push_back(std::move(op));
    after_op(ops.size());
  }
  return ops;
}

std::vector<double> Latencies(const std::vector<Op>& ops) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const Op& op : ops) out.push_back(op.latency_s);
  return out;
}

/// Prints each op class's share of the ops and its latency range, and the
/// classes the overall median and tail fall in, so a reader can see that each
/// sits inside one class with margin.
void PrintClasses(const std::vector<Op>& ops, double p50, double tail) {
  std::map<std::string, std::vector<double>> by_class;
  for (const Op& op : ops) by_class[op.cls].push_back(op.latency_s);
  for (auto& [cls, lat] : by_class) {
    std::sort(lat.begin(), lat.end());
    const auto holds = [&](double v) { return lat.front() <= v && v <= lat.back(); };
    std::printf("class %-16s %5zu ops (%5.1f%%)  min %9.4f  p50 %9.4f  max %9.4f ms%s%s\n",
                cls.c_str(), lat.size(),
                100.0 * static_cast<double>(lat.size()) / static_cast<double>(ops.size()),
                lat.front() * 1e3, Median(lat) * 1e3, lat.back() * 1e3,
                holds(p50) ? "  <- op_p50" : "", holds(tail) ? "  <- op_tail" : "");
  }
}

/// "(p50 of n)", plus the highest percentile with ten samples beyond it
/// once there are enough samples for that to be p90 or above.
std::string TailNote(const std::vector<double>& samples) {
  char buf[96];
  if (samples.size() < 100) {
    std::snprintf(buf, sizeof(buf), "(p50 of %zu)", samples.size());
  } else {
    const Tail tail = HighestTail(samples);
    std::snprintf(buf, sizeof(buf), "(p50 of %zu; p%.4g = %.6g ms, %zu beyond)",
                  samples.size(), tail.pct, tail.value * 1e3, tail.beyond);
  }
  return buf;
}

// The per-layer metrics timed from outside the machine libraries: setup
// calls (median over setup repetitions of their per-repetition sum), timed
// calls (p50 per call), and one-off calls (total).
enum class Kind { kSetupS, kP50Ms, kP50Us, kTotalS };
struct CallMetric {
  const char* name;
  const char* key;
  Kind kind;
};
constexpr CallMetric kCallMetrics[] = {
    {"wisconsin.generate_s", "wisconsin.generate", Kind::kSetupS},
    {"gamma.load_s", "gamma.load", Kind::kSetupS},
    {"gamma.index_s", "gamma.index", Kind::kSetupS},
    {"gamma.select_scan_ms", "gamma.select_scan", Kind::kP50Ms},
    {"gamma.select_ncindex_ms", "gamma.select_ncindex", Kind::kP50Ms},
    {"gamma.select_clindex_ms", "gamma.select_clindex", Kind::kP50Ms},
    {"gamma.select_point_ms", "gamma.select_point", Kind::kP50Ms},
    {"gamma.join_fit_ms", "gamma.join_fit", Kind::kP50Ms},
    {"gamma.join_overflow_ms", "gamma.join_overflow", Kind::kP50Ms},
    {"gamma.join3_ms", "gamma.join3", Kind::kP50Ms},
    {"gamma.aggregate_ms", "gamma.aggregate", Kind::kP50Ms},
    {"gamma.append_ms", "gamma.append", Kind::kP50Ms},
    {"gamma.delete_ms", "gamma.delete", Kind::kP50Ms},
    {"gamma.modify_ms", "gamma.modify", Kind::kP50Ms},
    {"gamma.commit_ms", "gamma.commit", Kind::kP50Ms},
    {"gamma.recover_s", "gamma.recover", Kind::kTotalS},
    {"teradata.load_s", "teradata.load", Kind::kSetupS},
    {"teradata.select_ms", "teradata.select", Kind::kP50Ms},
    {"teradata.join_ms", "teradata.join", Kind::kP50Ms},
    {"opt.recompute_stats_s", "opt.recompute_stats", Kind::kTotalS},
    {"opt.plan_us", "opt.plan", Kind::kP50Us},
};

const std::vector<std::string> kEndToEnd = {"setup_s", "ops_per_s", "op_p50_ms",
                                            "op_tail_ms", "peak_rss_mb"};

int Run(const Args& args) {
  const int threads = AvailableCpus();
  gammadb::sim::HostPool::Instance().set_num_threads(threads);
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Workload& w = *workload;
  Harness h(args.trace);
  bool ok = true;

  // Set-up, repeated; the last repetition is traced in a traced run.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.Teardown();
    h.BeginSetupRep();
    if (rep + 1 == kSetupReps) h.StartTracing("phase.setup");
    const double t0 = NowSec();
    const bool setup_ok = w.Setup(h);
    h.AddSetupWall(NowSec() - t0);
    h.StopTracing();
    if (!setup_ok) std::fprintf(stderr, "setup %d failed\n", rep);
    ok &= setup_ok;
  }
  h.SetPhase(Harness::Phase::kOther);
  ok &= w.Prepare(h);

  // Untraced timed phase; the exact counts cover its first counted_ops().
  uint64_t next_id = 0;
  h.SetPhase(Harness::Phase::kTimed);
  const MachineCounters before = w.ReadCounters();
  MachineCounters after = before;
  double window_rss_mb = 0;
  h.set_counting(true);
  const uint64_t window = w.counted_cycles() * w.cycle_ops();
  // A traced run splits its time between the untraced and the traced loop.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Op> ops =
      RunLoop(h, w, phase_s, window, &next_id, [&](size_t done) {
        if (done == window) {
          after = w.ReadCounters();
          window_rss_mb = PeakRssMb();
          h.set_counting(false);
        }
      });
  const double timed_busy = h.busy_s(Harness::Phase::kTimed);

  // Traced timed phase.
  std::vector<Op> traced;
  std::map<std::string, double> self;
  if (args.trace) {
    h.SetPhase(Harness::Phase::kTraced);
    h.StartTracing("phase.timed");
    traced = RunLoop(h, w, phase_s, 1, &next_id, [](size_t) {});
    h.StopTracing();
    self = h.SelfSecondsByLayer(h.last_root());
  }

  h.SetPhase(Harness::Phase::kOther);
  ok &= w.Finish(h);

  uint64_t failed = 0;
  for (const Op& op : ops) failed += op.ok ? 0 : 1;
  for (const Op& op : traced) failed += op.ok ? 0 : 1;
  const uint64_t attempted = ops.size() + traced.size();

  Report report;
  const std::vector<double> latencies = Latencies(ops);
  const Tail tail = TailAt(latencies, w.tail_pct());
  const double ops_per_s = static_cast<double>(ops.size()) / timed_busy;
  char note[128];
  report.Add("setup_s", h.SetupWallMedian(), "s",
             "(median of " + std::to_string(kSetupReps) + " set-ups)");
  std::snprintf(note, sizeof(note), "(%zu ops in %.3f busy s)", ops.size(), timed_busy);
  report.Add("ops_per_s", ops_per_s, "ops/s", note);
  report.Add("op_p50_ms", Median(latencies) * 1e3, "ms");
  std::snprintf(note, sizeof(note), "(p%g of %zu ops, %zu beyond)", tail.pct,
                latencies.size(), tail.beyond);
  report.Add("op_tail_ms", tail.value * 1e3, "ms", note);
  std::snprintf(note, sizeof(note), "(over set-up and the first %llu ops; %.1f MB at exit)",
                static_cast<unsigned long long>(window), PeakRssMb());
  report.Add("peak_rss_mb", window_rss_mb, "MB", note);
  report.Add("ops_failed_frac",
             static_cast<double>(failed) / static_cast<double>(attempted), "ratio");

  for (const CallMetric& m : kCallMetrics) {
    const std::vector<double>& samples = h.Samples(m.key);
    double total = 0;
    for (const double s : samples) total += s;
    switch (m.kind) {
      case Kind::kSetupS:
        report.Add(m.name, h.SetupMedian(m.key), "s");
        break;
      case Kind::kP50Ms:
        report.Add(m.name, Median(samples) * 1e3, "ms",
                   samples.empty() ? "(not exercised)" : TailNote(samples));
        break;
      case Kind::kP50Us:
        report.Add(m.name, Median(samples) * 1e6, "us",
                   samples.empty() ? "(not exercised)" : TailNote(samples));
        break;
      case Kind::kTotalS:
        report.Add(m.name, total, "s");
        break;
    }
  }
  report.Add("host_pool.threads", threads, "count");
  report.Add("host_pool.cores_busy", h.GammaCoresBusy(), "ratio");

  const SimCounts& c = h.counts();
  const double packets_all =
      static_cast<double>(c.packets + c.packets_short_circuited);
  report.Add("sim.charged_s", c.charged_s, "sim_s",
             "(exact counts over the first " + std::to_string(window) + " ops)");
  report.Add("sim.page_ios", static_cast<double>(c.page_ios), "count");
  report.Add("sim.pages_read", static_cast<double>(c.pages_read), "count");
  report.Add("sim.pages_written", static_cast<double>(c.pages_written), "count");
  report.Add("sim.packets", static_cast<double>(c.packets), "count");
  report.Add("sim.bytes_sent", static_cast<double>(c.bytes_sent), "bytes");
  report.Add("sim.short_circuit_frac",
             packets_all > 0 ? static_cast<double>(c.packets_short_circuited) / packets_all
                             : 0.0,
             "ratio");
  report.Add("sim.overflow_rounds", static_cast<double>(c.overflow_rounds), "count");
  report.Add("exec.tuples_routed", static_cast<double>(c.tuples_routed), "count");
  const uint64_t hits = after.pool_hits - before.pool_hits;
  const uint64_t misses = after.pool_misses - before.pool_misses;
  report.Add("storage.pool_hits", static_cast<double>(hits), "count");
  report.Add("storage.pool_misses", static_cast<double>(misses), "count");
  report.Add("storage.pool_evictions",
             static_cast<double>(after.pool_evictions - before.pool_evictions), "count");
  report.Add("storage.pool_hit_ratio",
             hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                               : 0.0,
             "ratio");
  report.Add("txn.locks_acquired", static_cast<double>(c.locks_acquired), "count");
  report.Add("txn.lock_waits", static_cast<double>(c.lock_waits), "count");
  const uint64_t wal_bytes = after.wal_bytes - before.wal_bytes;
  report.Add("wal.bytes", static_cast<double>(wal_bytes), "bytes");
  report.Add("wal.log_records", static_cast<double>(c.log_records), "count");
  report.Add("wal.forced_flushes", static_cast<double>(c.log_forced_flushes), "count");
  report.Add("wal.bytes_per_user_byte",
             w.user_bytes() > 0 ? static_cast<double>(wal_bytes) /
                                      static_cast<double>(w.user_bytes())
                                : 0.0,
             "ratio");

  if (args.trace) {
    const double traced_rate =
        static_cast<double>(traced.size()) / h.busy_s(Harness::Phase::kTraced);
    std::snprintf(note, sizeof(note), "(traced %.6g ops/s over untraced %.6g ops/s)",
                  traced_rate, ops_per_s);
    report.Add("trace.overhead_ratio", traced_rate / ops_per_s, "ratio", note);
    report.Add("trace.spans", static_cast<double>(h.spans().size()), "count");
    const double per_op = 1e3 / static_cast<double>(traced.size());
    for (const char* layer : {"gamma", "teradata", "opt", "harness"}) {
      const auto it = self.find(layer);
      report.Add(std::string("trace.") + layer + "_self_ms_per_op",
                 it == self.end() ? 0.0 : it->second * per_op, "ms/op");
    }
    if (!args.spans_out.empty() && !h.WriteSpans(args.spans_out, args.workload, args.seed)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans_out.c_str());
      ok = false;
    }
  }

  std::printf("workload %s seed %llu: %llu ops attempted, %llu failed, host pool %d threads\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), threads);
  PrintClasses(ops, Median(latencies), tail.value);
  report.PrintLines();

  // The JSON carries the end-to-end metrics in an untraced run and every
  // other metric in a traced one.
  const std::string metrics = report.Json([&](const std::string& name) {
    const bool end_to_end =
        std::find(kEndToEnd.begin(), kEndToEnd.end(), name) != kEndToEnd.end();
    return end_to_end != args.trace;
  });
  const bool correct = ok && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  hostbench::Args args;
  if (!hostbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hostbench --workload select_1m|join_100k|update_100k --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--wrong-answer-op K] "
                 "[--spans-out PATH]\n");
    return 2;
  }
  return hostbench::Run(args);
}
