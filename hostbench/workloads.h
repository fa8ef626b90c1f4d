#ifndef HOSTBENCH_WORKLOADS_H_
#define HOSTBENCH_WORKLOADS_H_

// The three seeded closed-loop workloads. Each builds its database in
// Setup(), issues one paper query per RunOp() and checks every answer
// against an oracle computed from the generated tuples.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gamma/machine.h"
#include "harness.h"

namespace hostbench {

struct WorkloadOptions {
  uint64_t seed = 1;
  /// Small relations for the self-test (the op mix is unchanged).
  bool tiny = false;
  /// Op id whose expected answer is deliberately wrong (negative check of
  /// the oracle); -1 for none.
  int64_t wrong_answer_op = -1;
};

/// Gamma storage and log totals, read between ops.
struct MachineCounters {
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t wal_bytes = 0;
};

class Workload {
 public:
  explicit Workload(WorkloadOptions options) : options_(options) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Destroys the database of a previous Setup() (not timed).
  virtual void Teardown() = 0;
  /// Generates, loads and indexes the database. Returns false on failure.
  virtual bool Setup(Harness& h) = 0;
  /// One-time work after the last setup, outside setup_s: statistics
  /// recomputation. Returns false on failure.
  virtual bool Prepare(Harness& h) = 0;
  /// Issues one paper query (the op's class is chosen from the seeded
  /// sequence) and checks its answer; sets op.cls and op.ok.
  virtual void RunOp(Harness& h, Op& op) = 0;
  /// Runs between ops, outside every op's span and latency: periodic
  /// housekeeping the op mix needs (none by default).
  virtual void Housekeep(Harness& h) { (void)h; }
  /// Ops in one shuffled cycle of the op mix. Timed phases run whole
  /// cycles, so every phase has exactly the mix's class shares.
  virtual uint64_t cycle_ops() const = 0;
  /// Cycles in the exact-count window at the start of the timed phase.
  virtual uint64_t counted_cycles() const { return 1; }
  /// The percentile op_tail_ms reports. Fixed per workload, so the metric
  /// means the same in every run; see hostbench/README.md for the choice.
  virtual double tail_pct() const = 0;
  /// Current Gamma buffer-pool and WAL totals.
  virtual MachineCounters ReadCounters() = 0;
  /// After the timed phases: end-of-run checks (durability, recovery).
  /// Returns false when a check fails.
  virtual bool Finish(Harness& h) { (void)h; return true; }
  /// Bytes of tuples the counted window's statements wrote (updates only).
  uint64_t user_bytes() const { return user_bytes_; }

 protected:
  /// Compares an answer with the oracle, honouring the negative check.
  bool Expect(const Op& op, uint64_t actual, uint64_t expected) const {
    if (static_cast<int64_t>(op.id) == options_.wrong_answer_op) ++expected;
    return actual == expected;
  }
  /// Sums a Gamma machine's pool counters and WAL bytes.
  static MachineCounters CountersOf(gammadb::gamma::GammaMachine& machine);
  /// Times RecomputeStatistics over `relations` under `key`.
  static bool RecomputeAll(Harness& h, gammadb::gamma::GammaMachine& machine,
                           const std::vector<std::string>& relations,
                           const char* key = "opt.recompute_stats");

  WorkloadOptions options_;
  uint64_t user_bytes_ = 0;
};

/// Builds a per-cycle deck holding each class index `weights[i]` times, in
/// a seeded shuffled order; ops draw from it in turn.
class Deck {
 public:
  Deck(std::vector<int> weights, uint64_t seed);
  int Next();
  size_t cycle_size() const { return cycle_.size(); }

 private:
  std::vector<int> cycle_;
  std::vector<int> order_;
  size_t pos_ = 0;
  SeqRng rng_;
};

std::unique_ptr<Workload> MakeSelectWorkload(WorkloadOptions options);
std::unique_ptr<Workload> MakeJoinWorkload(WorkloadOptions options);
std::unique_ptr<Workload> MakeUpdateWorkload(WorkloadOptions options);

}  // namespace hostbench

#endif  // HOSTBENCH_WORKLOADS_H_
