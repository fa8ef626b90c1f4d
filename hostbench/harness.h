#ifndef HOSTBENCH_HARNESS_H_
#define HOSTBENCH_HARNESS_H_

// Measurement core of the host-time benchmark: a wall/CPU clock, the
// layer-call timer every machine call goes through, the optional span
// tracer, the exact simulated-side counters, and the metric report.
//
// Layers are measured only from outside: the harness wraps each call into a
// public function of the machine libraries and reads the counters those
// calls already return. Nothing here reaches inside src/.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/cost_tracker.h"

namespace hostbench {

/// Seconds on the monotonic clock.
inline double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by every thread of this process.
double ProcessCpuSec();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Logical CPUs this process may run on (what `nproc` prints).
int AvailableCpus();

/// splitmix64: the benchmark's own statement-sequence generator, so the
/// op sequence for a seed never depends on the program under test.
class SeqRng {
 public:
  explicit SeqRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the run seed and a tag.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 if empty.
double Percentile(std::vector<double> samples, double p);

/// A tail percentile of a sample set and how many samples lie beyond it.
struct Tail {
  double pct = 0;
  double value = 0;
  size_t beyond = 0;
};
/// The nearest-rank `pct` percentile.
Tail TailAt(const std::vector<double>& samples, double pct);
/// The highest percentile with at least ten samples beyond it: p = 100 *
/// (n - 10) / n, the eleventh-largest sample. Needs n > 10.
Tail HighestTail(const std::vector<double>& samples);

double Median(std::vector<double> samples);

/// One recorded span: a call into a layer, an op, or a phase.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int64_t parent = -1;
  uint64_t op = 0;
  /// True for an op's root span (opened by BeginOpSpan).
  bool is_op = false;
};

/// Exact simulated-side work counts, summed over the QueryMetrics of every
/// machine call in the counted window. A host-speed change must leave all of
/// them byte-identical.
struct SimCounts {
  double charged_s = 0;
  uint64_t page_ios = 0;
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  uint64_t packets = 0;
  uint64_t packets_short_circuited = 0;
  uint64_t bytes_sent = 0;
  uint64_t overflow_rounds = 0;
  uint64_t tuples_routed = 0;
  uint64_t locks_acquired = 0;
  uint64_t lock_waits = 0;
  uint64_t log_records = 0;
  uint64_t log_forced_flushes = 0;

  void Add(const gammadb::sim::QueryMetrics& metrics);
};

/// Where a timed call's host time is booked.
enum class Booking {
  /// Part of the op's latency (and of the timed phase's busy time).
  kOp,
  /// Busy time of the timed phase, but no op's latency (planning, commits).
  kPhase,
  /// Neither: result drops, reloads and other benchmark bookkeeping.
  kAside,
};

/// One op of the closed loop: a paper query issued after the previous one
/// returned.
struct Op {
  uint64_t id = 0;
  std::string cls;
  double latency_s = 0;
  bool ok = true;
};

/// \brief Times calls into the machine layers and records what they report.
///
/// Every call into GammaMachine, TeradataMachine, wisconsin, opt::Planner
/// or the statistics catalog goes through Call(). The key names the layer
/// (its prefix before the first '.') and the call class, e.g.
/// "gamma.select_scan". Setup calls are summed per setup repetition; timed
/// calls keep one sample each.
class Harness {
 public:
  enum class Phase { kSetup, kTimed, kTraced, kOther };

  explicit Harness(bool keep_spans) : keep_spans_(keep_spans) {}

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Times `fn()` under `key`. `op` (may be null) receives kOp time.
  template <class F>
  auto Call(const char* key, Op* op, Booking booking, F&& fn) {
    const double t0 = NowSec();
    const bool cpu = phase_ == Phase::kTimed && booking != Booking::kAside && IsGamma(key);
    const double c0 = cpu ? ProcessCpuSec() : 0;
    const int64_t span = tracing_ ? BeginSpan(key, op) : -1;
    auto result = fn();
    if (span >= 0) EndSpan(span);
    const double t1 = NowSec();
    if (cpu) {
      gamma_wall_s_ += t1 - t0;
      gamma_cpu_s_ += ProcessCpuSec() - c0;
    }
    Book(key, op, booking, t1 - t0);
    return result;
  }

  // --- Phases ---

  /// Starts the next setup repetition; setup calls sum into it.
  void BeginSetupRep();
  void SetPhase(Phase phase);
  /// Spans are recorded only while tracing; the root span of the current
  /// phase is opened/closed here.
  void StartTracing(const char* phase_name);
  void StopTracing();
  /// Opens/closes an op's root span (no-op unless tracing). The span is
  /// named "op.<class>" once the op has chosen its class.
  int64_t BeginOpSpan(const Op& op);
  void EndOpSpan(int64_t span, const Op& op);

  /// Adds a timed-phase sample for `key` directly (a derived per-op time).
  void AddSample(const std::string& key, double seconds) {
    if (phase_ == Phase::kTimed || phase_ == Phase::kOther) {
      samples_[key].push_back(seconds);
    }
  }

  // --- Counters ---

  void set_counting(bool on) { counting_ = on; }
  bool counting() const { return counting_; }
  void Count(const gammadb::sim::QueryMetrics& metrics) {
    if (counting_) counts_.Add(metrics);
  }
  const SimCounts& counts() const { return counts_; }

  // --- Results ---

  /// Median over setup repetitions of the per-repetition sum for `key`
  /// (seconds); 0 when the key never ran.
  double SetupMedian(const std::string& key) const;
  /// Median over setup repetitions of their wall time.
  double SetupWallMedian() const { return Median(setup_wall_); }
  void AddSetupWall(double seconds) { setup_wall_.push_back(seconds); }
  /// Timed-phase samples (seconds) of `key`.
  const std::vector<double>& Samples(const std::string& key) const;
  /// Process CPU seconds over wall seconds inside the Gamma calls of the
  /// timed phase's ops and commits.
  double GammaCoresBusy() const {
    return gamma_wall_s_ > 0 ? gamma_cpu_s_ / gamma_wall_s_ : 0;
  }
  /// Busy seconds of the timed (or traced) phase: kOp + kPhase time.
  double busy_s(Phase phase) const {
    return phase == Phase::kTraced ? traced_busy_s_ : timed_busy_s_;
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Self seconds per layer over the op spans under root span `root` and
  /// their descendants: each span's duration minus its direct children's.
  /// Op spans count as the "harness" layer; spans between ops count nowhere.
  std::map<std::string, double> SelfSecondsByLayer(int64_t root) const;
  /// Root span of the most recent tracing window (-1 if none).
  int64_t last_root() const { return last_root_; }
  /// Writes every recorded span as JSON to `path`.
  bool WriteSpans(const std::string& path, const std::string& workload,
                  uint64_t seed) const;

 private:
  static bool IsGamma(const char* key);
  int64_t BeginSpan(const char* name, const Op* op);
  void EndSpan(int64_t span);
  void Book(const char* key, Op* op, Booking booking, double seconds);

  bool keep_spans_;
  bool tracing_ = false;
  bool counting_ = false;
  Phase phase_ = Phase::kOther;
  std::map<std::string, std::vector<double>> setup_sums_;
  size_t setup_rep_ = 0;
  std::vector<double> setup_wall_;
  std::map<std::string, std::vector<double>> samples_;
  double timed_busy_s_ = 0;
  double traced_busy_s_ = 0;
  double gamma_wall_s_ = 0;
  double gamma_cpu_s_ = 0;
  SimCounts counts_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  int64_t last_root_ = -1;
};

/// Named metrics with units, printed one per line and as the final JSON.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Human-readable lines: "name = value unit  (note)".
  void PrintLines() const;
  /// JSON object {"name": {"value": v, "unit": u}, ...} over the metrics
  /// `select` accepts, in the order they were added.
  std::string Json(const std::function<bool(const std::string&)>& select) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

}  // namespace hostbench

#endif  // HOSTBENCH_HARNESS_H_
