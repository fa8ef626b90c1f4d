#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hostbench {

double ProcessCpuSec() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

uint64_t SeqRng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  SeqRng rng(seed * 0x100000001B3ULL ^ tag);
  return rng.Next();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(samples.size())));
  return samples[index - 1];
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50); }

Tail TailAt(const std::vector<double>& samples, double pct) {
  const double n = static_cast<double>(samples.size());
  const double rank = std::clamp(std::ceil(pct / 100.0 * n), 1.0, std::max(n, 1.0));
  return Tail{pct, Percentile(samples, pct), static_cast<size_t>(n - rank)};
}

Tail HighestTail(const std::vector<double>& samples) {
  const size_t n = samples.size();
  const double pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return Tail{pct, Percentile(samples, pct), 10};
}

void SimCounts::Add(const gammadb::sim::QueryMetrics& metrics) {
  const gammadb::sim::NodeUsage total = metrics.Totals();
  charged_s += metrics.TotalSec();
  page_ios += total.seq_page_ios + total.rand_page_ios;
  pages_read += total.pages_read;
  pages_written += total.pages_written;
  packets += total.packets_sent;
  packets_short_circuited += total.packets_short_circuited;
  bytes_sent += total.bytes_sent;
  overflow_rounds += metrics.overflow_rounds;
  tuples_routed += total.tuples_routed;
  locks_acquired += metrics.locks_acquired;
  lock_waits += metrics.lock_waits;
  log_records += metrics.log_records;
  log_forced_flushes += metrics.log_forced_flushes;
}

bool Harness::IsGamma(const char* key) {
  return std::string_view(key).starts_with("gamma.");
}

void Harness::BeginSetupRep() {
  phase_ = Phase::kSetup;
  setup_rep_ = setup_wall_.size();
}

void Harness::SetPhase(Phase phase) { phase_ = phase; }

void Harness::Book(const char* key, Op* op, Booking booking, double seconds) {
  if (phase_ == Phase::kSetup) {
    std::vector<double>& sums = setup_sums_[key];
    sums.resize(setup_rep_ + 1, 0.0);
    sums[setup_rep_] += seconds;
    return;
  }
  if (booking == Booking::kOp && op != nullptr) op->latency_s += seconds;
  if (booking != Booking::kAside) {
    (phase_ == Phase::kTraced ? traced_busy_s_ : timed_busy_s_) += seconds;
  }
  if (phase_ != Phase::kTraced) samples_[key].push_back(seconds);
}

double Harness::SetupMedian(const std::string& key) const {
  const auto it = setup_sums_.find(key);
  if (it == setup_sums_.end()) return 0;
  std::vector<double> sums = it->second;
  sums.resize(std::max(sums.size(), setup_wall_.size()), 0.0);
  return Median(std::move(sums));
}

const std::vector<double>& Harness::Samples(const std::string& key) const {
  static const std::vector<double> kEmpty;
  const auto it = samples_.find(key);
  return it == samples_.end() ? kEmpty : it->second;
}

int64_t Harness::BeginSpan(const char* name, const Op* op) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op != nullptr ? op->id : 0;
  span.start = NowSec();
  spans_.push_back(std::move(span));
  const auto id = static_cast<int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Harness::EndSpan(int64_t span) {
  spans_[static_cast<size_t>(span)].end = NowSec();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Harness::StartTracing(const char* phase_name) {
  if (!keep_spans_) return;
  tracing_ = true;
  last_root_ = BeginSpan(phase_name, nullptr);
}

void Harness::StopTracing() {
  if (!tracing_) return;
  EndSpan(last_root_);
  tracing_ = false;
}

int64_t Harness::BeginOpSpan(const Op& op) {
  if (!tracing_) return -1;
  const int64_t span = BeginSpan("op", &op);
  spans_[static_cast<size_t>(span)].is_op = true;
  return span;
}

void Harness::EndOpSpan(int64_t span, const Op& op) {
  if (span < 0) return;
  EndSpan(span);
  spans_[static_cast<size_t>(span)].name = "op." + op.cls;
}

std::map<std::string, double> Harness::SelfSecondsByLayer(int64_t root) const {
  std::map<std::string, double> self;
  if (root < 0) return self;
  // Spans are appended in start order, so every descendant of `root` comes
  // after it. Only op spans under `root` and their descendants count:
  // housekeeping between ops is nobody's op.
  std::vector<double> child_s(spans_.size(), 0.0);
  std::vector<bool> in_op(spans_.size(), false);
  for (size_t i = static_cast<size_t>(root) + 1; i < spans_.size(); ++i) {
    const int64_t parent = spans_[i].parent;
    if (parent < 0) continue;
    const auto p = static_cast<size_t>(parent);
    in_op[i] = in_op[p] || (parent == root && spans_[i].is_op);
    if (in_op[i] && in_op[p]) child_s[p] += spans_[i].end - spans_[i].start;
  }
  for (size_t i = static_cast<size_t>(root) + 1; i < spans_.size(); ++i) {
    if (!in_op[i]) continue;
    const Span& span = spans_[i];
    const std::string layer =
        span.is_op ? "harness" : span.name.substr(0, span.name.find('.'));
    self[layer] += (span.end - span.start) - child_s[i];
  }
  return self;
}

bool Harness::WriteSpans(const std::string& path, const std::string& workload,
                         uint64_t seed) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                 "\"op\": %llu, \"is_op\": %s, \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.is_op ? "true" : "false",
                 (s.start - origin) * 1e6, (s.end - origin) * 1e6,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  entries_.push_back(Entry{name, value, unit, note});
}

void Report::PrintLines() const {
  for (const Entry& e : entries_) {
    std::printf("%-34s = %.17g %s%s%s\n", e.name.c_str(), e.value, e.unit.c_str(),
                e.note.empty() ? "" : "  ", e.note.c_str());
  }
}

std::string Report::Json(const std::function<bool(const std::string&)>& select) const {
  std::string out = "{";
  char value[64];
  for (const Entry& e : entries_) {
    if (!select(e.name)) continue;
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(e.value) ? e.value : 0.0);
    if (out.size() > 1) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + value + ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

}  // namespace hostbench
