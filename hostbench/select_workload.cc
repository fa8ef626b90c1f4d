// select_1m: the Table 1 selections on the paper's Gamma configuration
// (8 disk + 8 diskless nodes, 4 KB pages, 64 KB buffer pool per node) over
// 1M-tuple relations, at seeded random offsets. Read-only and bound by page
// scans and B-tree descents; it bypasses hash tables, sorts and the WAL.

#include "exec/predicate.h"
#include "opt/planner.h"
#include "wisconsin/wisconsin.h"
#include "workloads.h"

namespace hostbench {
namespace {

namespace gm = gammadb::gamma;
namespace wis = gammadb::wisconsin;
using gammadb::exec::Predicate;

constexpr const char* kHeap = "Aheap";
constexpr const char* kIndexed = "A";

enum Cls { kScan1, kScan10, kAuto10, kNc1, kCl1, kCl10, kPoint, kNumCls };

constexpr const char* kClsName[kNumCls] = {"scan1", "scan10", "auto10", "nc1",
                                           "cl1",   "cl10",   "point"};
// Ops of each class per shuffled cycle. Chosen so the op latency median
// falls well inside the ~25 ms band (1% non-clustered, 10% clustered) and the
// tail inside the 10% file-scan band (see hostbench/README.md).
constexpr int kWeights[kNumCls] = {2, 4, 1, 6, 2, 2, 3};
// Harness key (the per-layer metric) of each class's RunSelect call.
constexpr const char* kCallKey[kNumCls] = {
    "gamma.select_scan",    "gamma.select_scan",    "gamma.select_scan",
    "gamma.select_ncindex", "gamma.select_clindex", "gamma.select_clindex",
    "gamma.select_point"};

class SelectWorkload : public Workload {
 public:
  explicit SelectWorkload(WorkloadOptions options)
      : Workload(options),
        n_(options.tiny ? 10000 : 1000000),
        deck_({std::begin(kWeights), std::end(kWeights)},
              DeriveSeed(options.seed, 0x5E1)),
        rng_(DeriveSeed(options.seed, 0x0FF5)) {}

  void Teardown() override {
    planner_.reset();
    machine_.reset();
  }

  bool Setup(Harness& h) override {
    const auto tuples = h.Call("wisconsin.generate", nullptr, Booking::kAside, [&] {
      return wis::GenerateWisconsin(n_, DeriveSeed(options_.seed, 0xA));
    });
    gm::GammaConfig config;  // the paper's machine
    config.num_disk_nodes = 8;
    config.num_diskless_nodes = 8;
    config.page_size = 4096;
    machine_ = std::make_unique<gm::GammaMachine>(config);
    const auto spec =
        gammadb::catalog::PartitionSpec::Hashed(wis::kUnique1);
    bool ok = true;
    for (const char* name : {kHeap, kIndexed}) {
      ok &= h.Call("gamma.load", nullptr, Booking::kAside, [&] {
               gammadb::Status s =
                   machine_->CreateRelation(name, wis::WisconsinSchema(), spec);
               return s.ok() ? machine_->LoadTuples(name, tuples) : s;
             }).ok();
    }
    ok &= h.Call("gamma.index", nullptr, Booking::kAside, [&] {
             return machine_->BuildIndex(kIndexed, wis::kUnique1, true);
           }).ok();
    ok &= h.Call("gamma.index", nullptr, Booking::kAside, [&] {
             return machine_->BuildIndex(kIndexed, wis::kUnique2, false);
           }).ok();
    return ok;
  }

  bool Prepare(Harness& h) override {
    planner_ = std::make_unique<gammadb::opt::Planner>(*machine_);
    return RecomputeAll(h, *machine_, {kHeap, kIndexed});
  }

  void RunOp(Harness& h, Op& op) override {
    const int cls = deck_.Next();
    op.cls = kClsName[cls];
    const int32_t n = static_cast<int32_t>(n_);
    const int32_t width = (cls == kScan10 || cls == kAuto10 || cls == kCl10)
                              ? n / 10
                              : n / 100;
    const auto lo = static_cast<int32_t>(rng_.Uniform(static_cast<uint64_t>(n - width + 1)));
    gm::SelectQuery query;
    query.relation = kIndexed;
    // Results return to the host: the simulated disk never reclaims the
    // pages of a dropped relation, so a stored result per op would grow
    // memory with the op count.
    query.store_result = false;
    uint64_t expected = static_cast<uint64_t>(width);
    switch (cls) {
      case kScan1:
      case kScan10:
        query.relation = kHeap;
        query.predicate = Predicate::Range(wis::kUnique1, lo, lo + width - 1);
        query.access = gm::AccessPath::kFileScan;
        break;
      case kAuto10:  // the optimizer picks a file scan at 10% (§5.1)
        query.predicate = Predicate::Range(wis::kUnique2, lo, lo + width - 1);
        query.access = gm::AccessPath::kAuto;
        break;
      case kNc1:
        query.predicate = Predicate::Range(wis::kUnique2, lo, lo + width - 1);
        query.access = gm::AccessPath::kNonClusteredIndex;
        break;
      case kCl1:
      case kCl10:
        query.predicate = Predicate::Range(wis::kUnique1, lo, lo + width - 1);
        query.access = gm::AccessPath::kClusteredIndex;
        break;
      default:  // kPoint
        query.predicate = Predicate::Eq(wis::kUnique1, lo);
        expected = 1;
        break;
    }
    h.Call("opt.plan", &op, Booking::kPhase,
           [&] { return planner_->PlanSelect(query); });
    const auto result = h.Call(kCallKey[cls], &op, Booking::kOp,
                               [&] { return machine_->RunSelect(query); });
    op.ok = result.ok() && Expect(op, result->result_tuples, expected);
    if (!result.ok()) return;
    h.Count(result->metrics);
  }

  double tail_pct() const override { return 95; }
  uint64_t cycle_ops() const override { return deck_.cycle_size(); }

  MachineCounters ReadCounters() override { return CountersOf(*machine_); }

 private:
  uint32_t n_;
  Deck deck_;
  SeqRng rng_;
  std::unique_ptr<gm::GammaMachine> machine_;
  std::unique_ptr<gammadb::opt::Planner> planner_;
};

}  // namespace

std::unique_ptr<Workload> MakeSelectWorkload(WorkloadOptions options) {
  return std::make_unique<SelectWorkload>(options);
}

}  // namespace hostbench
