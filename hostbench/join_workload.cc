// join_100k: the Table 2 joins on Gamma with 4.8 MB of join memory, the
// Fig 13 overflow regime (joinAB), a grouped aggregate, and Teradata's
// redistribute + sort-merge joins and dense-index selection, over 100k-tuple
// relations. Exercises split tables, exchange, hash build/probe (fitting and
// overflowing), the host pool's parallel phases and the Teradata sort.

#include <cstdio>
#include <map>

#include "exec/aggregate.h"
#include "exec/predicate.h"
#include "opt/planner.h"
#include "teradata/machine.h"
#include "wisconsin/wisconsin.h"
#include "workloads.h"

namespace hostbench {
namespace {

namespace gm = gammadb::gamma;
namespace td = gammadb::teradata;
namespace wis = gammadb::wisconsin;
using gammadb::exec::Predicate;
using Tuples = std::vector<std::vector<uint8_t>>;

enum Cls {
  kABprime,   // joinABprime
  kAselB,     // joinAselB
  kCselAselB, // joinCselAselB: two RunJoin calls, one op
  kAB,        // joinAB: the build side overflows join memory
  kAggregate,
  kTdJoin,
  kTdSelect,
  kNumCls
};

constexpr const char* kClsName[kNumCls] = {
    "joinABprime", "joinAselB", "joinCselAselB", "joinAB",
    "aggregate",   "td_join",   "td_select"};
// Ops of each class per shuffled cycle. Chosen so the op latency median
// falls inside the fitting Gamma joins and the tail inside joinAB (see
// hostbench/README.md).
constexpr int kWeights[kNumCls] = {3, 3, 2, 2, 2, 1, 1};

constexpr gm::JoinMode kModes[] = {gm::JoinMode::kLocal, gm::JoinMode::kRemote,
                                   gm::JoinMode::kAllnodes};
constexpr int kGroupAttrs[] = {wis::kOnePercent, wis::kTwenty, wis::kTen};
/// Decks between database reloads (see Housekeep).
constexpr uint64_t kReloadDecks = 3;

class JoinWorkload : public Workload {
 public:
  explicit JoinWorkload(WorkloadOptions options)
      : Workload(options),
        n_(options.tiny ? 10000 : 100000),
        deck_({std::begin(kWeights), std::end(kWeights)},
              DeriveSeed(options.seed, 0x101)),
        rng_(DeriveSeed(options.seed, 0x0FF5)) {}

  void Teardown() override {
    planner_.reset();
    gamma_.reset();
    teradata_.reset();
  }

  bool Setup(Harness& h) override {
    const auto generate = [&](uint32_t n, uint64_t tag) {
      return h.Call("wisconsin.generate", nullptr, Booking::kAside, [&] {
        return wis::GenerateWisconsin(n, DeriveSeed(options_.seed, tag));
      });
    };
    // B is a copy of A (§4); Bprime and C are independent n/10 relations.
    a_ = generate(n_, 0xA);
    bprime_ = generate(n_ / 10, 0xB);
    c_ = generate(n_ / 10, 0xC);
    return Load(h);
  }

  bool Prepare(Harness& h) override {
    ComputeAggregateOracle(a_);
    return Plan(h, "opt.recompute_stats");
  }

  /// Every kReloadDecks decks, reloads both machines from the generated
  /// tuples, outside the timer. The simulated disks never reclaim the pages
  /// of dropped spool files, and joinAB and the Teradata join spool about
  /// 110 MB and 50 MB per op; without the reload, memory would grow with
  /// run length.
  void Housekeep(Harness& h) override {
    if (ops_run_ == 0 || ops_run_ % (deck_.cycle_size() * kReloadDecks) != 0 ||
        reloaded_at_ == ops_run_) {
      return;
    }
    reloaded_at_ = ops_run_;
    Teardown();
    if (!Load(h) || !Plan(h, "opt.recompute_stats_reload")) {
      std::fprintf(stderr, "join_100k: reloading the database failed\n");
      reload_ok_ = false;
    }
  }

  bool Finish(Harness&) override { return reload_ok_; }

  void RunOp(Harness& h, Op& op) override {
    ++ops_run_;
    const int cls = deck_.Next();
    op.cls = kClsName[cls];
    // Each class rotates through the three join sites and alternates key
    // (unique1) and non-key (unique2) attributes, so every six uses of a
    // class cover all six combinations once.
    const uint64_t use = uses_[cls]++;
    const int attr = use % 2 == 0 ? wis::kUnique1 : wis::kUnique2;
    const gm::JoinMode mode = kModes[use % 3];
    const int32_t n = static_cast<int32_t>(n_);
    const int32_t tenth = n / 10;
    switch (cls) {
      case kABprime:
      case kAselB:
      case kAB: {
        gm::JoinQuery q = GammaJoin("A", cls == kABprime ? "Bprime" : "B",
                                    attr, mode);
        if (cls == kAselB) {
          const auto lo = static_cast<int32_t>(rng_.Uniform(n - tenth + 1));
          q.outer_pred = Predicate::Range(attr, lo, lo + tenth - 1);
          q.inner_pred = q.outer_pred;
          q.expected_build_tuples = n_ / 10;
        }
        uint64_t tuples = 0;
        op.ok = RunGammaJoin(h, op, cls == kAB ? "gamma.join_overflow"
                                               : "gamma.join_fit",
                             q, &tuples) &&
                Expect(op, tuples, cls == kAB ? n_ : n_ / 10);
        break;
      }
      case kCselAselB: {
        // selAselB first, then the intermediate (B's attributes first) with
        // C, which builds. C's keys are 0..n/10-1, so the selection window
        // is fixed there (as in the paper).
        gm::JoinQuery first = GammaJoin("A", "B", attr, mode);
        first.outer_pred = Predicate::Range(attr, 0, tenth - 1);
        first.inner_pred = first.outer_pred;
        first.expected_build_tuples = n_ / 10;
        const double before = op.latency_s;
        std::string intermediate;
        uint64_t tuples = 0;
        op.ok = RunGammaJoin(h, op, "gamma.join3_step", first, &tuples,
                             &intermediate) &&
                Expect(op, tuples, n_ / 10);
        if (op.ok) {
          gm::JoinQuery second = GammaJoin(intermediate, "C", attr, mode);
          second.expected_build_tuples = n_ / 10;
          op.ok = RunGammaJoin(h, op, "gamma.join3_step", second, &tuples) &&
                  Expect(op, tuples, n_ / 10);
        }
        if (!intermediate.empty()) {
          h.Call("gamma.drop", &op, Booking::kAside,
                 [&] { return gamma_->DropRelation(intermediate); });
        }
        h.AddSample("gamma.join3", op.latency_s - before);
        break;
      }
      case kAggregate: {
        gm::AggregateQuery q;
        q.relation = "A";
        q.group_attr = kGroupAttrs[use % 3];
        q.value_attr = wis::kUnique2;
        q.func = gammadb::exec::AggFunc::kSum;
        h.Call("opt.plan", &op, Booking::kPhase,
               [&] { return planner_->PlanAggregate(q); });
        const auto r = h.Call("gamma.aggregate", &op, Booking::kOp,
                              [&] { return gamma_->RunAggregate(q); });
        op.ok = r.ok() && CheckAggregate(op, q.group_attr, r->returned);
        if (r.ok()) h.Count(r->metrics);
        break;
      }
      case kTdJoin: {
        // joinAselB on the non-key unique2, so both inputs are
        // redistributed before the sort-merge. Teradata does not propagate
        // the selection (§6.1): A is redistributed and sorted in full and
        // only B carries the 10% window. Results return to the host, as on
        // the Gamma side.
        const auto lo = static_cast<int32_t>(rng_.Uniform(n - tenth + 1));
        td::TdJoinQuery q;
        q.outer = "A";
        q.inner = "B";
        q.outer_attr = wis::kUnique2;
        q.inner_attr = wis::kUnique2;
        q.inner_pred = Predicate::Range(wis::kUnique2, lo, lo + tenth - 1);
        q.store_result = false;
        const auto r = h.Call("teradata.join", &op, Booking::kOp,
                              [&] { return teradata_->RunJoin(q); });
        op.ok = r.ok() && Expect(op, r->result_tuples, n_ / 10);
        if (r.ok()) h.Count(r->metrics);
        break;
      }
      default: {  // kTdSelect: 1% through the dense unique2 index
        const int32_t width = n / 100;
        const auto lo = static_cast<int32_t>(rng_.Uniform(n - width + 1));
        td::TdSelectQuery q;
        q.relation = "A";
        q.predicate = Predicate::Range(wis::kUnique2, lo, lo + width - 1);
        q.store_result = false;
        const auto r = h.Call("teradata.select", &op, Booking::kOp,
                              [&] { return teradata_->RunSelect(q); });
        op.ok = r.ok() && Expect(op, r->result_tuples, static_cast<uint64_t>(width));
        if (r.ok()) h.Count(r->metrics);
        break;
      }
    }
  }

  double tail_pct() const override { return 85; }
  uint64_t cycle_ops() const override { return deck_.cycle_size(); }
  /// One whole reload period, so peak_rss_mb covers the largest footprint
  /// any later period reaches.
  uint64_t counted_cycles() const override { return kReloadDecks; }

  MachineCounters ReadCounters() override { return CountersOf(*gamma_); }

 private:
  /// Recomputes the Gamma statistics (timed under `key`) and binds the
  /// planner to the current machine.
  bool Plan(Harness& h, const char* key) {
    planner_ = std::make_unique<gammadb::opt::Planner>(*gamma_);
    return RecomputeAll(h, *gamma_, {"A", "B", "Bprime", "C"}, key);
  }

  /// Builds both machines from the generated tuples.
  bool Load(Harness& h) {
    gm::GammaConfig config;
    config.num_disk_nodes = 8;
    config.num_diskless_nodes = 8;
    config.page_size = 4096;
    // 4.8 MB at 100k (§6.1), scaled with the relation size.
    config.join_memory_total = 4800ull * 1024 * n_ / 100000;
    gamma_ = std::make_unique<gm::GammaMachine>(config);
    teradata_ = std::make_unique<td::TeradataMachine>(td::TeradataConfig{});
    const auto spec = gammadb::catalog::PartitionSpec::Hashed(wis::kUnique1);
    const std::pair<const char*, const Tuples*> relations[] = {
        {"A", &a_}, {"B", &a_}, {"Bprime", &bprime_}, {"C", &c_}};
    bool ok = true;
    for (const auto& [name, tuples] : relations) {
      ok &= h.Call("gamma.load", nullptr, Booking::kAside, [&] {
               gammadb::Status s =
                   gamma_->CreateRelation(name, wis::WisconsinSchema(), spec);
               return s.ok() ? gamma_->LoadTuples(name, *tuples) : s;
             }).ok();
      ok &= h.Call("teradata.load", nullptr, Booking::kAside, [&] {
               gammadb::Status s = teradata_->CreateRelation(
                   name, wis::WisconsinSchema(), wis::kUnique1);
               return s.ok() ? teradata_->LoadTuples(name, *tuples) : s;
             }).ok();
    }
    ok &= h.Call("teradata.load", nullptr, Booking::kAside, [&] {
             return teradata_->BuildSecondaryIndex("A", wis::kUnique2);
           }).ok();
    return ok;
  }

  static gm::JoinQuery GammaJoin(const std::string& outer,
                                 const std::string& inner, int attr,
                                 gm::JoinMode mode) {
    gm::JoinQuery q;
    q.outer = outer;
    q.inner = inner;
    q.outer_attr = attr;
    q.inner_attr = attr;
    q.mode = mode;
    return q;
  }

  /// Plans (aside) and runs one Gamma join, counting its metrics. The result
  /// returns to the host unless `stored` asks for a stored relation's name:
  /// the simulated disk never reclaims the pages of a dropped relation, so
  /// a stored result per op would grow memory with the op count.
  bool RunGammaJoin(Harness& h, Op& op, const char* key, gm::JoinQuery q,
                    uint64_t* tuples, std::string* stored = nullptr) {
    q.store_result = stored != nullptr;
    h.Call("opt.plan", &op, Booking::kPhase, [&] { return planner_->PlanJoin(q); });
    const auto r = h.Call(key, &op, Booking::kOp, [&] { return gamma_->RunJoin(q); });
    if (!r.ok()) return false;
    h.Count(r->metrics);
    *tuples = r->result_tuples;
    if (stored != nullptr) *stored = r->result_relation;
    return true;
  }

  /// Per-group sums of unique2 for every grouping attribute the op mix uses.
  void ComputeAggregateOracle(const Tuples& a) {
    const auto& schema = wis::WisconsinSchema();
    sums_.clear();
    for (const std::vector<uint8_t>& t : a) {
      const gammadb::catalog::TupleView view(&schema, t);
      for (const int g : kGroupAttrs) {
        sums_[g][view.GetInt(static_cast<size_t>(g))] +=
            view.GetInt(wis::kUnique2);
      }
    }
  }

  bool CheckAggregate(const Op& op, int group_attr, const Tuples& returned) {
    const auto& expected = sums_.at(group_attr);
    if (!Expect(op, returned.size(), expected.size())) return false;
    const gammadb::catalog::Schema schema =
        gammadb::exec::GroupedAggregator::ResultSchema();
    for (const std::vector<uint8_t>& t : returned) {
      const gammadb::catalog::TupleView view(&schema, t);
      const auto it = expected.find(view.GetInt(0));
      if (it == expected.end() || it->second != view.GetInt(1)) return false;
    }
    return true;
  }

  uint32_t n_;
  Deck deck_;
  SeqRng rng_;
  std::unique_ptr<gm::GammaMachine> gamma_;
  std::unique_ptr<td::TeradataMachine> teradata_;
  std::unique_ptr<gammadb::opt::Planner> planner_;
  uint64_t uses_[kNumCls] = {};
  Tuples a_;
  Tuples bprime_;
  Tuples c_;
  uint64_t ops_run_ = 0;
  uint64_t reloaded_at_ = 0;
  bool reload_ok_ = true;
  /// group attribute -> group value -> sum of unique2.
  std::map<int, std::map<int32_t, int64_t>> sums_;
};

}  // namespace

std::unique_ptr<Workload> MakeJoinWorkload(WorkloadOptions options) {
  return std::make_unique<JoinWorkload>(options);
}

}  // namespace hostbench
